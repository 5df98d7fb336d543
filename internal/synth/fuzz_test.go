package synth_test

import (
	"testing"

	"graphpipe/internal/synth"
)

// FuzzParse feeds Parse arbitrary model names, as service requests and
// the router's fingerprinting do. Nothing may panic, and any name that
// parses and resolves must round-trip: the resolved spec's String parses
// back to the same spec, Resolve is idempotent on it, and Generate builds
// it into at most MaxOps operators. Seeds live in testdata/fuzz.
func FuzzParse(f *testing.F) {
	f.Add("synth:fanout/seed=42/depth=2/branches=5")
	f.Fuzz(func(t *testing.T, name string) {
		spec, err := synth.Parse(name)
		if err != nil {
			return
		}
		rs, err := synth.Resolve(spec)
		if err != nil {
			return
		}
		back, err := synth.Parse(rs.String())
		if err != nil {
			t.Fatalf("Parse(%q) resolved to %q, which does not parse: %v", name, rs, err)
		}
		if back != rs {
			t.Fatalf("resolved spec does not round-trip: %+v vs %+v", rs, back)
		}
		if again, err := synth.Resolve(back); err != nil || again != rs {
			t.Fatalf("Resolve is not idempotent on %q: %+v, %v", rs, again, err)
		}
		g, gs, err := synth.Generate(rs)
		if err != nil {
			t.Fatalf("Generate(%q): %v", rs, err)
		}
		if gs != rs || g.Len() > synth.MaxOps {
			t.Fatalf("Generate(%q) = %d operators as %q; want at most %d as itself", rs, g.Len(), gs, synth.MaxOps)
		}
	})
}
