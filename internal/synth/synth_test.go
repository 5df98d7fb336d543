package synth_test

import (
	"math"
	"strings"
	"testing"

	"graphpipe/internal/spgraph"
	"graphpipe/internal/synth"
)

// TestSpecStringRoundTrip pins the canonical string form: every
// resolved spec parses back to itself, and the regenerated graph is
// byte-identical under graph.Canonical.
func TestSpecStringRoundTrip(t *testing.T) {
	for _, fam := range synth.Families() {
		for seed := int64(0); seed < 8; seed++ {
			g, rs, err := synth.Generate(synth.Spec{Family: fam, Seed: seed})
			if err != nil {
				t.Fatalf("%s seed %d: %v", fam, seed, err)
			}
			name := rs.String()
			if !strings.HasPrefix(name, synth.Prefix) || g.Name() != name {
				t.Fatalf("%s seed %d: graph name %q, spec string %q", fam, seed, g.Name(), name)
			}
			parsed, err := synth.Parse(name)
			if err != nil {
				t.Fatalf("%s: parse(%q): %v", fam, name, err)
			}
			if parsed != rs {
				t.Fatalf("%s: round trip changed the spec: %+v vs %+v", fam, parsed, rs)
			}
			g2, rs2, err := synth.Generate(parsed)
			if err != nil {
				t.Fatalf("%s: regenerate: %v", fam, err)
			}
			if rs2 != rs {
				t.Fatalf("%s: resolution is not idempotent: %+v vs %+v", fam, rs2, rs)
			}
			if string(g.Canonical()) != string(g2.Canonical()) {
				t.Fatalf("%s seed %d: regenerated graph differs from original", fam, seed)
			}
		}
	}
}

// TestSeedsDiversify guards the point of the generator: different seeds
// of one family must produce different graphs (content hash), otherwise
// the corpus collapses to one scenario per family.
func TestSeedsDiversify(t *testing.T) {
	for _, fam := range synth.Families() {
		hashes := map[string]int64{}
		for seed := int64(0); seed < 16; seed++ {
			g, _, err := synth.Generate(synth.Spec{Family: fam, Seed: seed})
			if err != nil {
				t.Fatalf("%s seed %d: %v", fam, seed, err)
			}
			h := g.CanonicalHash()
			if prev, dup := hashes[h]; dup {
				t.Errorf("%s: seeds %d and %d generate identical graphs", fam, prev, seed)
			}
			hashes[h] = seed
		}
	}
}

// TestExplicitKnobsIndependent pins the salted-stream property: pinning
// one knob must not change what the seed derives for the others.
func TestExplicitKnobsIndependent(t *testing.T) {
	base, err := synth.Resolve(synth.Spec{Family: "fanout", Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := synth.Resolve(synth.Spec{Family: "fanout", Seed: 11, Depth: base.Depth + 1})
	if err != nil {
		t.Fatal(err)
	}
	if pinned.Branches != base.Branches {
		t.Errorf("pinning depth changed derived branches: %d vs %d", pinned.Branches, base.Branches)
	}
	if pinned.Depth != base.Depth+1 {
		t.Errorf("explicit depth not honored: got %d", pinned.Depth)
	}
}

// TestGeneratedGraphsDecompose pins the structural contract: every
// family generates graphs the series-parallel decomposer can split
// without falling back to linearization — each multi-op zone reached by
// recursive splitting offers a series or parallel split, and the DP
// state space stays small enough for the corpus to be cheap.
func TestGeneratedGraphsDecompose(t *testing.T) {
	for _, fam := range synth.Families() {
		for seed := int64(0); seed < 4; seed++ {
			g, rs, err := synth.Generate(synth.Spec{Family: fam, Seed: seed})
			if err != nil {
				t.Fatalf("%s seed %d: %v", fam, seed, err)
			}
			d := spgraph.New(g)
			if g.Len() > 1 && d.IsAtom(d.Root()) {
				t.Errorf("%s: root zone of %s is an atom", fam, rs)
			}
			if zones := d.CountZones(); zones > 20000 {
				t.Errorf("%s: %s explodes to %d zones", fam, rs, zones)
			}
		}
	}
}

// TestParseErrors pins the self-diagnosing syntax error paths (range
// violations are Resolve's job; see TestResolveRejectsOutOfRangeKnobs).
func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"chain/seed=1",             // missing prefix
		"synth:",                   // missing family
		"synth:nope/seed=1",        // unknown family
		"synth:chain",              // missing seed
		"synth:chain/seed=x",       // malformed seed
		"synth:chain/seed=1/depth", // malformed knob
		"synth:chain/seed=1/wat=2", // unknown knob
		"synth:chain/seed=1/d=1.5", // unknown knob key
	} {
		if _, err := synth.Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
	// Range violations in a parsed spec surface at generation time
	// through the Resolve funnel.
	for _, bad := range []string{
		"synth:chain/seed=1/depth=-5",
		"synth:skew/seed=1/skew=-1",
	} {
		spec, err := synth.Parse(bad)
		if err != nil {
			t.Fatalf("Parse(%q): %v (syntax is fine; range is Resolve's)", bad, err)
		}
		if _, _, err := synth.Generate(spec); err == nil {
			t.Errorf("Generate accepted out-of-range %q", bad)
		}
	}
}

// TestDefaultMiniBatch pins the pairing planners rely on: a
// power-of-two ladder proportional to the device count.
func TestDefaultMiniBatch(t *testing.T) {
	for _, devs := range []int{1, 2, 4, 8} {
		if mb := synth.DefaultMiniBatch(devs); mb != 8*devs {
			t.Errorf("DefaultMiniBatch(%d) = %d", devs, mb)
		}
	}
}

// TestResolveRejectsOutOfRangeKnobs pins the funnel fix: explicit knobs
// are range-checked in Resolve — the path shared by Parse, the CLI
// flags, and Spec literals — so a pinned spec can never generate a
// graph its own printed spec string fails to Parse, and negative skew
// can never scale operator costs negative.
func TestResolveRejectsOutOfRangeKnobs(t *testing.T) {
	for name, s := range map[string]synth.Spec{
		"negative depth":    {Family: "chain", Seed: 1, Depth: -5},
		"negative branches": {Family: "fanout", Seed: 1, Branches: -2},
		"huge depth":        {Family: "chain", Seed: 1, Depth: 1 << 20},
		"negative nesting":  {Family: "nested", Seed: 1, Nesting: -1},
		"negative skew":     {Family: "skew", Seed: 1, Skew: -3},
		"huge skew":         {Family: "skew", Seed: 1, Skew: 1000},
		"NaN skew":          {Family: "skew", Seed: 1, Skew: math.NaN()},
		"infinite skew":     {Family: "skew", Seed: 1, Skew: math.Inf(1)},
		// Each knob is in range; the graph they build is not.
		"nested doubling":  {Family: "nested", Seed: 1, Nesting: 16},
		"fanout product":   {Family: "fanout", Seed: 1, Depth: 1024, Branches: 1024},
		"chain past bound": {Family: "chain", Seed: 1, Depth: synth.MaxOps - 1},
	} {
		if _, err := synth.Resolve(s); err == nil {
			t.Errorf("%s: Resolve accepted %+v", name, s)
		}
		if _, _, err := synth.Generate(s); err == nil {
			t.Errorf("%s: Generate accepted %+v", name, s)
		}
	}
}

// TestResolveOpsBoundIsTight pins MaxOps at its boundary: a chain of
// exactly MaxOps operators (input, Depth layers, head) still generates.
func TestResolveOpsBoundIsTight(t *testing.T) {
	g, _, err := synth.Generate(synth.Spec{Family: "chain", Seed: 1, Depth: synth.MaxOps - 2})
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != synth.MaxOps {
		t.Errorf("chain at the bound has %d operators, want %d", g.Len(), synth.MaxOps)
	}
}
