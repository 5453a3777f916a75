package main

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
)

// parseMetrics reads a Prometheus text exposition (GET /metrics) into a map
// from sample name — with its label set, when it has one, exactly as
// written (`fitsd_corpus_rounds_bucket{le="2"}`) — to value. Comment lines
// are skipped; a malformed sample line is an error.
func parseMetrics(text string) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// The value follows the last space outside the label set; label
		// values may themselves hold spaces.
		nameEnd := strings.LastIndexByte(line, '}')
		if nameEnd < 0 {
			nameEnd = strings.IndexByte(line, ' ') - 1
		}
		if nameEnd < 0 || nameEnd+1 >= len(line) || line[nameEnd+1] != ' ' {
			return nil, fmt.Errorf("metrics line %d: no value: %q", n, line)
		}
		fields := strings.Fields(line[nameEnd+1:])
		// A sample may carry a timestamp after its value.
		if len(fields) < 1 || len(fields) > 2 {
			return nil, fmt.Errorf("metrics line %d: malformed sample: %q", n, line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", n, err)
		}
		out[line[:nameEnd+1]] = v
	}
	return out, sc.Err()
}

// histogramMean returns a histogram's sum over its count (0 when empty).
func histogramMean(m map[string]float64, name string) float64 {
	if c := m[name+"_count"]; c > 0 {
		return m[name+"_sum"] / c
	}
	return 0
}
