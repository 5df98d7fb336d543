package cluster

import "testing"

// FuzzParseSpec feeds ParseSpec arbitrary strings, as service requests
// and the router's fingerprinting do. It must never panic, and any spec
// it accepts must round-trip through Canonical: the canonical string
// parses back to a spec with the same canonical string. Seeds live in
// testdata/fuzz.
func FuzzParseSpec(f *testing.F) {
	f.Add(SummitSpec(8).Canonical())
	f.Fuzz(func(t *testing.T, name string) {
		spec, err := ParseSpec(name)
		if err != nil {
			return
		}
		canon := spec.Canonical()
		again, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("ParseSpec(%q) accepted, but its canonical form %q does not parse: %v", name, canon, err)
		}
		if got := again.Canonical(); got != canon {
			t.Fatalf("canonical form is not stable:\n%q\n%q", canon, got)
		}
	})
}
