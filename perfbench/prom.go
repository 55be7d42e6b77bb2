package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Samples is one scrape of a Prometheus text exposition: every sample line
// keyed by its series name in canonical form — the metric name followed by
// its labels sorted by label name, as seriesKey builds it.
type Samples map[string]float64

// parseExposition reads the Prometheus text format (version 0.0.4):
// comment and blank lines are skipped, every other line is
// `name[{labels}] value [timestamp]`. Label order in the input does not
// matter; keys are canonicalised so lookups can name labels in any order.
func parseExposition(r io.Reader) (Samples, error) {
	out := make(Samples)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' {
			continue
		}
		key, rest, err := splitSeries(text)
		if err != nil {
			return nil, fmt.Errorf("exposition line %d: %w", line, err)
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 || len(fields) > 2 {
			return nil, fmt.Errorf("exposition line %d: want `series value [timestamp]`, got %q", line, text)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("exposition line %d: value: %w", line, err)
		}
		out[key] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading exposition: %w", err)
	}
	return out, nil
}

// splitSeries splits a sample line into its canonical series key and the
// text after the series (value and optional timestamp).
func splitSeries(text string) (key, rest string, err error) {
	brace := strings.IndexByte(text, '{')
	space := strings.IndexAny(text, " \t")
	if brace < 0 || (space >= 0 && space < brace) {
		if space < 0 {
			return "", "", fmt.Errorf("no value in %q", text)
		}
		return text[:space], text[space:], nil
	}
	name := text[:brace]
	var labels []string
	i := brace + 1
	for {
		for i < len(text) && (text[i] == ' ' || text[i] == ',') {
			i++
		}
		if i >= len(text) {
			return "", "", fmt.Errorf("unterminated label set in %q", text)
		}
		if text[i] == '}' {
			i++
			break
		}
		eq := strings.IndexByte(text[i:], '=')
		if eq < 0 || i+eq+1 >= len(text) || text[i+eq+1] != '"' {
			return "", "", fmt.Errorf("malformed label in %q", text)
		}
		lname := strings.TrimSpace(text[i : i+eq])
		j := i + eq + 2
		var val strings.Builder
		for ; j < len(text) && text[j] != '"'; j++ {
			if text[j] == '\\' && j+1 < len(text) {
				j++
				switch text[j] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(text[j])
				}
				continue
			}
			val.WriteByte(text[j])
		}
		if j >= len(text) {
			return "", "", fmt.Errorf("unterminated label value in %q", text)
		}
		labels = append(labels, lname, val.String())
		i = j + 1
	}
	return seriesKey(name, labels...), text[i:], nil
}

// seriesKey builds the canonical key of a series from its metric name and
// label name/value pairs, given in any order.
func seriesKey(name string, labels ...string) string {
	if len(labels) == 0 {
		return name
	}
	type pair struct{ k, v string }
	ps := make([]pair, 0, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		ps = append(ps, pair{labels[i], labels[i+1]})
	}
	sort.Slice(ps, func(a, b int) bool { return ps[a].k < ps[b].k })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, p := range ps {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(strings.ReplaceAll(strings.ReplaceAll(p.v, `\`, `\\`), `"`, `\"`))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// get returns one series' value, 0 when the scrape does not carry it.
func (s Samples) get(name string, labels ...string) float64 {
	return s[seriesKey(name, labels...)]
}

// counterDelta is the increase of a counter between two scrapes. A counter
// that went down was reset — the process restarted between the scrapes —
// so the increase since the restart is the whole later value.
func counterDelta(before, after Samples, name string, labels ...string) float64 {
	key := seriesKey(name, labels...)
	b, a := before[key], after[key]
	if a < b {
		return a
	}
	return a - b
}
