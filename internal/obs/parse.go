package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ParseSamples parses Prometheus text exposition output into samples —
// the inverse of WriteText and the same form Registry.Samples returns,
// so a scraped /metrics body and a local registry read alike. The fleet
// router sums its shards' scrapes this way. Only the subset of the
// format WriteText emits is understood (no timestamps); a malformed
// sample line is an error, comment and blank lines are skipped.
func ParseSamples(r io.Reader) ([]Sample, error) {
	var out []Sample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// ParseText is ParseSamples flattened to a map keyed by series identity
// (`name` or `name{labels}`, labels sorted), for callers that look
// series up by the name they would grep for.
func ParseText(r io.Reader) (map[string]float64, error) {
	samples, err := ParseSamples(r)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(samples))
	for _, s := range samples {
		out[s.ID()] = s.Value
	}
	return out, nil
}

// parseSample parses one `name{k="v",...} value` line. Label values
// escape exactly as Go string literals do (\\, \", \n), so strconv
// unquotes them.
func parseSample(line string) (Sample, error) {
	bad := func() (Sample, error) { return Sample{}, fmt.Errorf("obs: malformed sample line %q", line) }
	end := strings.IndexAny(line, "{ ")
	if end <= 0 || strings.ContainsAny(line[:1], "0123456789") {
		return bad()
	}
	s := Sample{Name: line[:end]}
	rest := line[end:]
	if rest[0] == '{' {
		s.Labels = Labels{}
		for rest = rest[1:]; !strings.HasPrefix(rest, "}"); {
			k, after, _ := strings.Cut(rest, "=")
			q, err := strconv.QuotedPrefix(after)
			if err != nil || k == "" {
				return bad()
			}
			s.Labels[k], _ = strconv.Unquote(q)
			rest = strings.TrimPrefix(after[len(q):], ",")
		}
		rest = rest[1:]
	}
	if !strings.HasPrefix(rest, " ") {
		return bad()
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return Sample{}, fmt.Errorf("obs: bad value in %q: %v", line, err)
	}
	s.Value = v
	return s, nil
}
