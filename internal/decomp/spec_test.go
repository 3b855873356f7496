package decomp

import (
	"flag"
	"net/url"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/ebsnlab/geacc/internal/partition"
)

// fullSpec sets every knob the query codec carries.
func fullSpec() Spec {
	return Spec{
		Algo: "random-v", Seed: 7, Decompose: true, Diag: true,
		Shard: &partition.Options{MaxArea: 500, Strategy: partition.StrategyBFS, DriftBudget: 0.5, RepairRounds: partition.DefaultRepairRounds},
	}
}

func TestParseQueryBools(t *testing.T) {
	def := DefaultSpec()
	def.Shard = &partition.Options{MaxArea: 64}
	for _, tc := range []struct {
		query string
		ok    bool
		check func(Spec) bool
	}{
		{"diag=1", true, func(s Spec) bool { return s.Diag }},
		{"diag=yes", true, func(s Spec) bool { return s.Diag }},
		{"diag=false", true, func(s Spec) bool { return !s.Diag }},
		{"diag=on", false, nil},
		{"decompose=true", true, func(s Spec) bool { return s.Decompose }},
		{"decompose=maybe", false, nil},
		{"", true, func(s Spec) bool { return s.Shard != nil && s.Shard.MaxArea == 64 }},
		{"approx_shard=0", true, func(s Spec) bool { return s.Shard == nil }},
		{"approx_shard=on", false, nil},
		{"approx_shard=1&shard_strategy=bfs", true, func(s Spec) bool {
			return s.Shard.Strategy == partition.StrategyBFS && s.Shard.MaxArea == 64
		}},
		{"shard_strategy=zigzag&approx_shard=0", false, nil},
		{"shard_max_area=-5", false, nil},
		{"shard_drift_budget=NaN", false, nil},
		{"seed=x", false, nil},
		{"algo=portfolio&decompose=1", false, nil},
		{"algo=portfolio", false, nil}, // the default shard implies decomposition
		{"algo=portfolio&approx_shard=0", true, func(s Spec) bool { return s.Algo == "portfolio" }},
		{"algo=nope", false, nil},
		{"scope=full&format=chrome", true, func(s Spec) bool { return s.Algo == "greedy" && s.Seed == 1 }},
	} {
		q, err := url.ParseQuery(tc.query)
		if err != nil {
			t.Fatal(err)
		}
		s, err := ParseQuery(q, def)
		if (err == nil) != tc.ok {
			t.Errorf("%q: err = %v, want ok=%v", tc.query, err, tc.ok)
			continue
		}
		if tc.ok && !tc.check(s) {
			t.Errorf("%q: parsed %+v", tc.query, s)
		}
	}

	// The removed workers and cache knobs are unknown parameters: ignored,
	// whatever their value.
	base, err := ParseQuery(url.Values{}, def)
	if err != nil {
		t.Fatal(err)
	}
	for _, raw := range []string{"workers=3&cache=0", "workers=1.5&cache=maybe"} {
		q, err := url.ParseQuery(raw)
		if err != nil {
			t.Fatal(err)
		}
		if s, err := ParseQuery(q, def); err != nil || !reflect.DeepEqual(s, base) {
			t.Errorf("%q: parsed %+v, %v; want %+v", raw, s, err, base)
		}
	}
}

func TestSpecQueryRoundTrip(t *testing.T) {
	for _, s := range []Spec{DefaultSpec(), fullSpec(), {Algo: "portfolio", Seed: -3}} {
		q, err := url.ParseQuery(s.Query())
		if err != nil {
			t.Fatal(err)
		}
		got, err := ParseQuery(q, DefaultSpec())
		if err != nil {
			t.Fatalf("%q: %v", s.Query(), err)
		}
		if !reflect.DeepEqual(got, s) {
			t.Fatalf("%q: round trip %+v, want %+v", s.Query(), got, s)
		}
	}
}

// TestSpecKeyHashesOnlyWhatChangesTheResult pins the cache-key rule: the
// seed keys only the random baselines, and shard tuning hashes normalized.
func TestSpecKeyHashesOnlyWhatChangesTheResult(t *testing.T) {
	in := matrixInstance(t, nil)
	key := func(s Spec) string {
		t.Helper()
		k, ok := s.Key(in, "")
		if !ok {
			t.Fatalf("%+v: uncacheable", s)
		}
		return string(k[:])
	}
	same := func(a, b Spec, want bool) {
		t.Helper()
		if got := key(a) == key(b); got != want {
			t.Errorf("key(%+v) == key(%+v) is %v, want %v", a, b, got, want)
		}
	}
	for _, algo := range []string{"greedy", "mincostflow", "exact"} {
		same(Spec{Algo: algo, Seed: 1}, Spec{Algo: algo, Seed: 2}, true)
		same(Spec{Algo: algo, Decompose: true, Seed: 1}, Spec{Algo: algo, Decompose: true, Seed: 2}, true)
	}
	same(Spec{Algo: "random-v", Seed: 1}, Spec{Algo: "random-v", Seed: 2}, false)
	same(Spec{Algo: "greedy"}, Spec{Algo: "greedy", Diag: true}, false)
	same(Spec{Algo: "greedy"}, Spec{Algo: "greedy", Decompose: true}, false)
	norm := partition.Options{}.Normalized()
	same(Spec{Algo: "greedy", Shard: &partition.Options{}}, Spec{Algo: "greedy", Shard: &norm}, true)
	same(Spec{Algo: "greedy", Shard: &partition.Options{}}, Spec{Algo: "greedy", Decompose: true}, false)
	same(Spec{Algo: "greedy", Shard: &partition.Options{}}, Spec{Algo: "greedy", Shard: &partition.Options{MaxArea: 9}}, false)

	if _, ok := (Spec{Algo: "portfolio"}).Key(in, ""); ok {
		t.Error("portfolio: cacheable")
	}
}

func TestBindFlags(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	resolve := BindFlags(fs, "algo", "seed", "decompose", "diag",
		"approx-shard", "shard-max-area", "shard-strategy", "shard-drift-budget")
	if err := fs.Parse([]string{"-algo", "random-v", "-seed", "7", "-decompose",
		"-diag", "-approx-shard", "-shard-max-area", "500", "-shard-strategy", "bfs", "-shard-drift-budget", "0.5"}); err != nil {
		t.Fatal(err)
	}
	got, err := resolve()
	if err != nil {
		t.Fatal(err)
	}
	want := fullSpec()
	want.Shard.RepairRounds = 0 // flags leave unset tuning zero
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flags resolved to %+v, want %+v", got, want)
	}

	// Unset shard tuning stays zero, and Query omits it, so an encoded
	// request leaves the server's defaults in force.
	fs = flag.NewFlagSet("t", flag.ContinueOnError)
	resolve = BindFlags(fs, "approx-shard", "shard-max-area", "shard-strategy")
	if err := fs.Parse([]string{"-approx-shard"}); err != nil {
		t.Fatal(err)
	}
	if got, err := resolve(); err != nil || !reflect.DeepEqual(got.Shard, &partition.Options{}) {
		t.Fatalf("bare -approx-shard resolved to %+v, %v", got.Shard, err)
	}
	if q := (Spec{Algo: "greedy", Seed: 1, Shard: &partition.Options{}}).Query(); q != "algo=greedy&approx_shard=1&seed=1" {
		t.Fatalf("query %q", q)
	}

	for _, args := range [][]string{{"-algo", "portfolio", "-decompose"}, {"-approx-shard", "-shard-strategy", "zigzag"}} {
		fs = flag.NewFlagSet("t", flag.ContinueOnError)
		resolve = BindFlags(fs, "algo", "decompose", "shard-strategy", "approx-shard")
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		if _, err := resolve(); err == nil {
			t.Errorf("%v: accepted", args)
		}
	}
}

// queryNames are the parameter names the codec reads: every name Query
// emits for a fully set spec, each of which must reject a malformed value.
func queryNames(t *testing.T) []string {
	t.Helper()
	q, err := url.ParseQuery(fullSpec().Query())
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for name := range q {
		if _, err := ParseQuery(url.Values{name: {"@"}}, DefaultSpec()); err == nil {
			t.Errorf("%s=@ accepted", name)
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TestServiceDocParamTable keeps docs/SERVICE.md's parameter table and the
// codec in step: the table's rows are exactly the names ParseQuery reads.
func TestServiceDocParamTable(t *testing.T) {
	doc, err := os.ReadFile("../../docs/SERVICE.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## Solve parameters\n")
	if !ok {
		t.Fatal("docs/SERVICE.md has no \"## Solve parameters\" section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	var rows []string
	for _, m := range regexp.MustCompile("(?m)^\\| `([a-z_]+)` \\|").FindAllStringSubmatch(section, -1) {
		rows = append(rows, m[1])
	}
	sort.Strings(rows)
	if names := queryNames(t); !reflect.DeepEqual(rows, names) {
		t.Fatalf("parameter table rows %v, codec parses %v", rows, names)
	}
}

// Query encodes s as a query string ParseQuery(·, DefaultSpec()) reads
// back as s: the encoder the round-trip tests and FuzzSpecQuery check the
// codec against. Zero shard tuning fields are omitted, leaving the server's
// default in force.
func (s Spec) Query() string {
	q := url.Values{"algo": {s.Algo}, "seed": {strconv.FormatInt(s.Seed, 10)}}
	if s.Decompose {
		q.Set("decompose", "1")
	}
	if s.Diag {
		q.Set("diag", "1")
	}
	if sh := s.Shard; sh != nil {
		q.Set("approx_shard", "1")
		if sh.MaxArea > 0 {
			q.Set("shard_max_area", strconv.FormatInt(sh.MaxArea, 10))
		}
		if sh.Strategy != "" {
			q.Set("shard_strategy", string(sh.Strategy))
		}
		if sh.DriftBudget > 0 {
			q.Set("shard_drift_budget", strconv.FormatFloat(sh.DriftBudget, 'g', -1, 64))
		}
	}
	return q.Encode()
}

// FuzzSpecQuery: parsing any query string never panics, and every spec it
// accepts round-trips through Query.
func FuzzSpecQuery(f *testing.F) {
	f.Add("")
	f.Add(fullSpec().Query())
	f.Fuzz(func(t *testing.T, raw string) {
		q, err := url.ParseQuery(raw)
		if err != nil {
			return
		}
		s, err := ParseQuery(q, DefaultSpec())
		if err != nil {
			return
		}
		back, err := url.ParseQuery(s.Query())
		if err != nil {
			t.Fatalf("Query() %q does not parse: %v", s.Query(), err)
		}
		got, err := ParseQuery(back, DefaultSpec())
		if err != nil {
			t.Fatalf("Query() %q of accepted %q rejected: %v", s.Query(), raw, err)
		}
		if !reflect.DeepEqual(got, s) {
			t.Fatalf("%q: round trip %+v, want %+v", raw, got, s)
		}
	})
}
