package cluster

import (
	"strconv"
	"strings"
	"testing"
)

// TestParseSpecBoundsDevices is the regression for a ~90-byte spec
// whose assign=100000000xa once expanded into a 100M-entry slice before
// any validation ran, killing the process with a fatal out-of-memory
// error. The device total is now checked before each append, so the
// spec is refused without allocating, as is a total that only crosses
// the limit across entries; a spec at exactly the limit still parses.
func TestParseSpecBoundsDevices(t *testing.T) {
	spec := func(width int, assign string) string {
		return "topo:explicit/classes=a:1:1:1/levels=l0:" + strconv.Itoa(width) + ":1:1:0/assign=" + assign
	}
	for _, s := range []string{
		spec(4, "100000000xa"),
		spec(4, "9223372036854775807xa"),
		spec(MaxSpecDevices, strconv.Itoa(MaxSpecDevices)+"xa+1xa"),
	} {
		allocs := testing.AllocsPerRun(1, func() {
			if _, err := ParseSpec(s); err == nil || !strings.Contains(err.Error(), "exceeds") {
				t.Errorf("ParseSpec(%q) = %v, want the device-limit error", s, err)
			}
		})
		if allocs > 100 {
			t.Errorf("ParseSpec(%q) made %v allocations before refusing", s, allocs)
		}
	}
	got, err := ParseSpec(spec(MaxSpecDevices, strconv.Itoa(MaxSpecDevices-1)+"xa+1xa"))
	if err != nil || len(got.Assign) != MaxSpecDevices {
		t.Fatalf("spec at the limit: %d devices, %v; want %d, nil", len(got.Assign), err, MaxSpecDevices)
	}
}

// TestParseSpecRejectsNonFinite pins the fuzz finding behind the
// inf-memory seed: "Inf" once parsed as a class capability and rendered
// canonically as "+Inf", which the grammar splits on '+', so the
// canonical form no longer parsed. NaN rates and latencies, which no
// cost can use, are refused the same way.
func TestParseSpecRejectsNonFinite(t *testing.T) {
	for _, s := range []string{
		"topo:explicit/classes=a:Inf:1:1/levels=l0:4:1:1:0/assign=4xa",
		"topo:explicit/classes=a:1:NaN:1/levels=l0:4:1:1:0/assign=4xa",
		"topo:explicit/classes=a:1:1:1/levels=l0:4:NaN:1:0/assign=4xa",
		"topo:explicit/classes=a:1:1:1/levels=l0:4:1:Inf:0/assign=4xa",
		"topo:explicit/classes=a:1:1:1/levels=l0:4:1:1:Inf/assign=4xa",
		"topo:explicit/classes=a:1:1:1/levels=l0:4:1:1:NaN/assign=4xa",
	} {
		if _, err := ParseSpec(s); err == nil {
			t.Errorf("ParseSpec(%q) accepted a non-finite value", s)
		}
	}
}
