package queue

import (
	"fmt"
	"maps"
	"sort"
	"strconv"
	"strings"
	"time"

	"tcpburst/internal/sim"
)

// Spec is the self-describing name of a gateway discipline plus its
// parameters — the one representation of a discipline; the experiment
// harness stores its canonical text as the configuration. The canonical
// text form is "name" or "name?key=value&key2=value2", e.g.
//
//	fifo
//	red?ecn=true
//	codel?target=5ms&interval=100ms
//	tokenbucket?rate=3000&burst=60
//
// A Spec is built by ParseSpec (the CLIs' -queue parser) or a literal, and
// turned into a running Discipline by Build against the factory registry.
// Params is nil for a bare name; an empty map and a nil map render and
// compare (via String) identically.
type Spec struct {
	// Name selects the registered factory.
	Name string
	// Params carries the discipline's settings as decimal/duration/bool
	// strings. Unknown keys are a build error, so typos fail loudly.
	Params map[string]string `json:",omitempty"`
}

// ParseSpec parses the "name?k=v&k2=v2" grammar. The name and every key
// must be non-empty; duplicate keys are rejected so a flag like
// "-queue codel?target=1ms&target=2ms" cannot silently half-apply.
func ParseSpec(s string) (Spec, error) {
	name, query, hasQuery := strings.Cut(s, "?")
	if name == "" {
		return Spec{}, fmt.Errorf("queue spec %q: empty discipline name", s)
	}
	if strings.ContainsAny(name, "&=") {
		return Spec{}, fmt.Errorf("queue spec %q: malformed name %q (parameters go after '?')", s, name)
	}
	spec := Spec{Name: name}
	if !hasQuery {
		return spec, nil
	}
	if query == "" {
		return Spec{}, fmt.Errorf("queue spec %q: '?' with no parameters", s)
	}
	spec.Params = make(map[string]string)
	for _, kv := range strings.Split(query, "&") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok || k == "" {
			return Spec{}, fmt.Errorf("queue spec %q: parameter %q is not key=value", s, kv)
		}
		if _, dup := spec.Params[k]; dup {
			return Spec{}, fmt.Errorf("queue spec %q: duplicate parameter %q", s, k)
		}
		spec.Params[k] = v
	}
	return spec, nil
}

// String renders the spec in canonical form: parameters sorted by key, so
// two specs that configure the same discipline identically render — and
// label sweep cells, telemetry streams, and summaries — identically.
func (s Spec) String() string {
	if len(s.Params) == 0 {
		return s.Name
	}
	keys := make([]string, 0, len(s.Params))
	for k := range s.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteString(s.Name)
	for i, k := range keys {
		if i == 0 {
			sb.WriteByte('?')
		} else {
			sb.WriteByte('&')
		}
		sb.WriteString(k)
		sb.WriteByte('=')
		sb.WriteString(s.Params[k])
	}
	return sb.String()
}

// Clone deep-copies the spec so callers can hold one without aliasing the
// parser's map.
func (s Spec) Clone() Spec {
	if s.Params == nil {
		return s
	}
	return Spec{Name: s.Name, Params: maps.Clone(s.Params)}
}

// params is the typed, error-accumulating reader factories use to pull
// settings out of a Spec. Every accessor records the key it consumed;
// finish then rejects any parameter the factory never asked about, so an
// unknown or misspelled key is a build error naming the discipline.
type params struct {
	spec Spec
	used map[string]bool
	err  error
}

func (s Spec) params() *params {
	return &params{spec: s, used: make(map[string]bool, len(s.Params))}
}

func (p *params) raw(key string) (string, bool) {
	p.used[key] = true
	v, ok := p.spec.Params[key]
	return v, ok
}

func (p *params) fail(key, v string, err error) {
	if p.err == nil {
		p.err = fmt.Errorf("%s: parameter %s=%q: %v", p.spec.Name, key, v, err)
	}
}

// duration reads a time.ParseDuration value, defaulting when absent.
func (p *params) duration(key string, def sim.Duration) sim.Duration {
	v, ok := p.raw(key)
	if !ok {
		return def
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		p.fail(key, v, err)
		return def
	}
	return d
}

// float reads a decimal value, defaulting when absent.
func (p *params) float(key string, def float64) float64 {
	v, ok := p.raw(key)
	if !ok {
		return def
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		p.fail(key, v, err)
		return def
	}
	return f
}

// boolean reads a strconv.ParseBool value, defaulting when absent.
func (p *params) boolean(key string, def bool) bool {
	v, ok := p.raw(key)
	if !ok {
		return def
	}
	b, err := strconv.ParseBool(v)
	if err != nil {
		p.fail(key, v, err)
		return def
	}
	return b
}

// finish returns the first accumulated error, or an unknown-parameter
// error if the spec carried keys the factory never consumed.
func (p *params) finish() error {
	if p.err != nil {
		return p.err
	}
	var unknown []string
	for k := range p.spec.Params {
		if !p.used[k] {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return fmt.Errorf("%s: unknown parameter %q", p.spec.Name, unknown[0])
	}
	return nil
}
