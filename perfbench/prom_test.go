package main

import (
	"strings"
	"testing"
)

const exposition = `# HELP mus_cache_hits_total Cache hits.
# TYPE mus_cache_hits_total counter
mus_cache_hits_total{cache="sim"} 0
mus_cache_hits_total{cache="solver"} 1500
# TYPE mus_http_request_duration_seconds histogram
mus_http_request_duration_seconds_bucket{method="POST",route="/v1/solve",le="0.001"} 7
mus_http_request_duration_seconds_sum{route="/v1/solve",method="POST"} 0.125
mus_http_request_duration_seconds_count{method="POST",route="/v1/solve"} 10
mus_build_info{go_version="go1.24.0",version="a \"quoted\" v"} 1
mus_runtime_heap_bytes 3.091328e+06 1712345678000

mus_engine_solves_total 42
`

func TestParseExposition(t *testing.T) {
	s, err := parseExposition(strings.NewReader(exposition))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		labels []string
		want   float64
	}{
		{"mus_cache_hits_total", []string{"cache", "solver"}, 1500},
		{"mus_cache_hits_total", []string{"cache", "sim"}, 0},
		// Label order in the input and in the lookup does not matter.
		{"mus_http_request_duration_seconds_sum", []string{"method", "POST", "route", "/v1/solve"}, 0.125},
		{"mus_http_request_duration_seconds_count", []string{"route", "/v1/solve", "method", "POST"}, 10},
		{"mus_http_request_duration_seconds_bucket", []string{"le", "0.001", "route", "/v1/solve", "method", "POST"}, 7},
		{"mus_build_info", []string{"version", `a "quoted" v`, "go_version", "go1.24.0"}, 1},
		{"mus_runtime_heap_bytes", nil, 3091328}, // a trailing timestamp is ignored
		{"mus_engine_solves_total", nil, 42},
		{"mus_absent_total", nil, 0},
	}
	for _, c := range cases {
		if got := s.get(c.name, c.labels...); got != c.want {
			t.Errorf("get(%s %v) = %v, want %v", c.name, c.labels, got, c.want)
		}
	}
	if got := daemonGoVersion(s); got != "go1.24.0" {
		t.Errorf("daemonGoVersion = %q", got)
	}
}

func TestParseExpositionRejectsMalformedLines(t *testing.T) {
	for _, bad := range []string{
		"mus_x{cache=\"solver\" 1\n",
		"mus_x{cache=solver} 1\n",
		"mus_x\n",
		"mus_x one\n",
		"mus_x 1 2 3\n",
	} {
		if _, err := parseExposition(strings.NewReader(bad)); err == nil {
			t.Errorf("parseExposition(%q) accepted a malformed line", bad)
		}
	}
}

func TestCounterDelta(t *testing.T) {
	before := Samples{
		seriesKey("mus_engine_solves_total"):                 100,
		seriesKey("mus_cache_hits_total", "cache", "solver"): 5000,
	}
	after := Samples{
		seriesKey("mus_engine_solves_total"):                 160,
		seriesKey("mus_cache_hits_total", "cache", "solver"): 300, // the daemon restarted in between
		seriesKey("mus_admission_shed_total"):                2,   // first seen after the opening scrape
	}
	if got := counterDelta(before, after, "mus_engine_solves_total"); got != 60 {
		t.Errorf("plain delta = %v, want 60", got)
	}
	if got := counterDelta(before, after, "mus_cache_hits_total", "cache", "solver"); got != 300 {
		t.Errorf("delta across a restart = %v, want the post-restart count 300", got)
	}
	if got := counterDelta(before, after, "mus_admission_shed_total"); got != 2 {
		t.Errorf("delta of a new series = %v, want 2", got)
	}
	if got := counterDelta(before, after, "mus_absent_total"); got != 0 {
		t.Errorf("delta of an absent series = %v, want 0", got)
	}
}
