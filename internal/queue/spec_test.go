package queue

import (
	"strings"
	"testing"

	"tcpburst/internal/telemetry"
)

func TestParseSpec(t *testing.T) {
	cases := []struct {
		in     string
		name   string
		params map[string]string
	}{
		{"fifo", "fifo", nil},
		{"red?ecn=true", "red", map[string]string{"ecn": "true"}},
		{"codel?target=5ms&interval=100ms", "codel",
			map[string]string{"target": "5ms", "interval": "100ms"}},
		{"tokenbucket?rate=3000&burst=60&perflow=true", "tokenbucket",
			map[string]string{"rate": "3000", "burst": "60", "perflow": "true"}},
	}
	for _, tc := range cases {
		spec, err := ParseSpec(tc.in)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", tc.in, err)
			continue
		}
		if spec.Name != tc.name {
			t.Errorf("ParseSpec(%q).Name = %q, want %q", tc.in, spec.Name, tc.name)
		}
		if len(spec.Params) != len(tc.params) {
			t.Errorf("ParseSpec(%q).Params = %v, want %v", tc.in, spec.Params, tc.params)
			continue
		}
		for k, v := range tc.params {
			if spec.Params[k] != v {
				t.Errorf("ParseSpec(%q).Params[%q] = %q, want %q", tc.in, k, spec.Params[k], v)
			}
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	cases := []struct {
		in     string
		substr string
	}{
		{"", "empty discipline name"},
		{"?target=5ms", "empty discipline name"},
		{"red=ecn", "malformed name"},
		{"a&b", "malformed name"},
		{"codel?", "'?' with no parameters"},
		{"codel?target", "not key=value"},
		{"codel?=5ms", "not key=value"},
		{"codel?target=1ms&target=2ms", "duplicate parameter"},
	}
	for _, tc := range cases {
		_, err := ParseSpec(tc.in)
		if err == nil || !strings.Contains(err.Error(), tc.substr) {
			t.Errorf("ParseSpec(%q) error = %v, want mention of %q", tc.in, err, tc.substr)
		}
	}
}

// TestSpecStringCanonical checks that String sorts parameters, so two specs
// differing only in key order render — and hence label and cache — the same.
func TestSpecStringCanonical(t *testing.T) {
	a, err := ParseSpec("codel?target=5ms&interval=100ms")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseSpec("codel?interval=100ms&target=5ms")
	if err != nil {
		t.Fatal(err)
	}
	const want = "codel?interval=100ms&target=5ms"
	if a.String() != want || b.String() != want {
		t.Errorf("String() = %q / %q, want both %q", a, b, want)
	}
	// Round trip: parsing the canonical form reproduces it.
	c, err := ParseSpec(a.String())
	if err != nil {
		t.Fatal(err)
	}
	if c.String() != want {
		t.Errorf("round trip = %q, want %q", c, want)
	}
	if bare := (Spec{Name: "fifo"}); bare.String() != "fifo" {
		t.Errorf("bare spec String() = %q, want fifo", bare)
	}
}

// TestREDSettings checks the RED reader both backends share: absent keys
// take the paper-era defaults, given keys override them, other
// disciplines report !ok, and a bad or unknown key is an error.
func TestREDSettings(t *testing.T) {
	def := DefaultREDConfig(0, 0, nil)
	cases := []struct {
		in   string
		want REDConfig
		ok   bool
	}{
		{"red", def, true},
		{"red?ecn=true", REDConfig{MinThreshold: 10, MaxThreshold: 40, Weight: 0.002, MaxProb: 0.1, ECN: true}, true},
		{"red?gentle=true&max=15&maxprob=0.2&min=5&weight=0.01",
			REDConfig{MinThreshold: 5, MaxThreshold: 15, Weight: 0.01, MaxProb: 0.2, Gentle: true}, true},
		{"fifo", REDConfig{}, false},
		{"codel?target=5ms", REDConfig{}, false},
	}
	for _, tc := range cases {
		spec, err := ParseSpec(tc.in)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", tc.in, err)
		}
		got, ok, err := REDSettings(spec)
		if err != nil || ok != tc.ok || got != tc.want {
			t.Errorf("REDSettings(%q) = %+v, %v, %v; want %+v, %v", tc.in, got, ok, err, tc.want, tc.ok)
		}
	}
	for _, in := range []string{"red?min=x", "red?target=5ms", "red?ecn=notabool"} {
		spec, err := ParseSpec(in)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", in, err)
		}
		if _, _, err := REDSettings(spec); err == nil {
			t.Errorf("REDSettings(%q) accepted a bad parameter", in)
		}
	}
}

// TestSpecReporting pins how each discipline labels itself and where its
// counters go: the paper's disciplines keep their bare names and the
// red*/drr series, everything else reports as generic AQM.
func TestSpecReporting(t *testing.T) {
	cases := []struct {
		in      string
		label   string
		report  Reporting
		metrics []string
	}{
		{"fifo", "fifo", ReportNone, nil},
		{"drr", "drr", ReportNone, []string{"drr.evictions"}},
		{"red?ecn=true", "red", ReportRED, []string{"red.early_drops", "red.forced_drops", "red.marks"}},
		{"codel?target=5ms", "codel?target=5ms", ReportAQM,
			[]string{"aqm.early_drops", "aqm.forced_drops", "aqm.marks", "aqm.shed", "aqm.evictions"}},
	}
	for _, tc := range cases {
		spec, err := ParseSpec(tc.in)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", tc.in, err)
		}
		if got := spec.Label(); got != tc.label {
			t.Errorf("%q Label = %q, want %q", tc.in, got, tc.label)
		}
		if got := spec.Reporting(); got != tc.report {
			t.Errorf("%q Reporting = %v, want %v", tc.in, got, tc.report)
		}
		reg := telemetry.NewRegistry()
		spec.RegisterMetrics(reg)
		if got := reg.Fields(); strings.Join(got, ",") != strings.Join(tc.metrics, ",") {
			t.Errorf("%q registered %v, want %v", tc.in, got, tc.metrics)
		}
	}
}

// FuzzParseSpec checks the grammar the Config canonicalization rests on:
// ParseSpec never panics, and every accepted spec's canonical text parses
// back to itself, so canonicalizing twice is canonicalizing once. The seed
// corpus in testdata/fuzz holds the golden table's specs.
func FuzzParseSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseSpec(s)
		if err != nil {
			return
		}
		canon := spec.String()
		again, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("canonical text %q of %q does not parse: %v", canon, s, err)
		}
		if again.String() != canon {
			t.Fatalf("canonical text %q of %q re-renders as %q", canon, s, again.String())
		}
	})
}
