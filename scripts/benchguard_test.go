package main

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// canned is `go test -bench -benchmem` output as it looks on a 2-CPU
// machine: a -N suffix on every name, a custom metric between ns/op and
// B/op, and one package header per package.
const canned = `goos: linux
goarch: amd64
pkg: github.com/thu-has/ragnar/internal/nic
cpu: Intel(R) Xeon(R) Processor
BenchmarkArbiterPick/strict-2         	    1000	        12.50 ns/op	       0 B/op	       0 allocs/op
BenchmarkArbiterPick/dwrr-2           	    1000	        40.10 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	github.com/thu-has/ragnar/internal/nic	0.012s
pkg: github.com/thu-has/ragnar/internal/lab
BenchmarkClosForward-2   	       2	   4917804 ns/op	      1152 events/op	 2563756 B/op	     962 allocs/op
PASS
ok  	github.com/thu-has/ragnar/internal/lab	0.021s
`

var cannedRows = []row{
	{"internal/nic", "BenchmarkArbiterPick/strict", 1000, 0},
	{"internal/nic", "BenchmarkArbiterPick/dwrr", 1000, 0},
	{"internal/lab", "BenchmarkClosForward", 2, 962},
}

func mustParse(t *testing.T, out string) map[string]map[string]float64 {
	t.Helper()
	res, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestParseNames(t *testing.T) {
	res := mustParse(t, canned)
	if bad := check(cannedRows, res); len(bad) > 0 {
		t.Fatalf("canned output fails its own rows: %v", bad)
	}
	got := res["internal/lab.BenchmarkClosForward"]
	if got["ns/op"] != 4917804 || got["events/op"] != 1152 || got["allocs/op"] != 962 || got["B/op"] != 2563756 {
		t.Fatalf("ClosForward parsed as %+v", got)
	}
	// GOMAXPROCS=1 prints no suffix.
	res = mustParse(t, "pkg: github.com/thu-has/ragnar/internal/nic\nBenchmarkArbiterPick/dwrr  1000  40.1 ns/op  0 B/op  0 allocs/op\n")
	if _, ok := res["internal/nic.BenchmarkArbiterPick/dwrr"]; !ok {
		t.Fatalf("unsuffixed sub-benchmark not parsed: %v", res)
	}
}

func TestCheckCeiling(t *testing.T) {
	rows := slices.Clone(cannedRows)
	rows[2].allocs = 961
	bad := check(rows, mustParse(t, canned))
	if len(bad) != 1 || !strings.Contains(bad[0], "BenchmarkClosForward: 962 allocs/op, ceiling 961") {
		t.Fatalf("one alloc over the ceiling: got %v", bad)
	}
	over := strings.Replace(canned, "40.10 ns/op	       0 B/op	       0 allocs/op", "40.10 ns/op	      16 B/op	       1 allocs/op", 1)
	if bad := check(cannedRows, mustParse(t, over)); len(bad) != 1 || !strings.Contains(bad[0], "dwrr") {
		t.Fatalf("one alloc on a 0-ceiling hot path: got %v", bad)
	}
}

func TestCheckMissing(t *testing.T) {
	rows := append(slices.Clone(cannedRows), row{"internal/nic", "BenchmarkArbiterPick/fifo", 1000, 0})
	bad := check(rows, mustParse(t, canned))
	if len(bad) != 1 || !strings.Contains(bad[0], "BenchmarkArbiterPick/fifo: missing") {
		t.Fatalf("missing row: got %v", bad)
	}
}

func TestParseFailure(t *testing.T) {
	for name, out := range map[string]string{
		"b.Fatal": strings.Replace(canned, "PASS\nok  	github.com/thu-has/ragnar/internal/lab",
			"--- FAIL: BenchmarkClosForward-2\n    bench_test.go:21: dial: no QP\nFAIL\nexit status 1\nFAIL	github.com/thu-has/ragnar/internal/lab", 1),
		"package FAIL": canned + "FAIL	github.com/thu-has/ragnar/internal/covert [build failed]\n",
	} {
		if _, err := parse(strings.NewReader(out)); err == nil {
			t.Errorf("%s: parse accepted a failed run", name)
		}
	}
}

// fieldNames collects the top-level keys of a BENCH document and the union
// of its records' keys (events fields are omitted on rows without events).
func fieldNames(t *testing.T, blob []byte) (doc, rec []string) {
	t.Helper()
	var d map[string]json.RawMessage
	if err := json.Unmarshal(blob, &d); err != nil {
		t.Fatal(err)
	}
	var recs []map[string]any
	if err := json.Unmarshal(d["benchmarks"], &recs); err != nil {
		t.Fatal(err)
	}
	for k := range d {
		doc = append(doc, k)
	}
	for _, r := range recs {
		for k := range r {
			if !slices.Contains(rec, k) {
				rec = append(rec, k)
			}
		}
	}
	slices.Sort(doc)
	slices.Sort(rec)
	return doc, rec
}

// TestDocumentFields keeps schema ragnar-bench/v1: the written document
// has exactly the fields of a baseline the old harness wrote.
func TestDocumentFields(t *testing.T) {
	old, err := os.ReadFile("../BENCH_2026-10-17.json")
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(document(cannedRows, mustParse(t, canned), "2026-10-17"))
	if err != nil {
		t.Fatal(err)
	}
	wantDoc, wantRec := fieldNames(t, old)
	gotDoc, gotRec := fieldNames(t, blob)
	if !slices.Equal(gotDoc, wantDoc) || !slices.Equal(gotRec, wantRec) {
		t.Fatalf("document fields %v / record fields %v, want %v / %v", gotDoc, gotRec, wantDoc, wantRec)
	}
	var doc benchDoc
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != "ragnar-bench/v1" || len(doc.Benchmarks) != len(cannedRows) {
		t.Fatalf("schema %q with %d records", doc.Schema, len(doc.Benchmarks))
	}
	if r := doc.Benchmarks[2]; r.Name != "internal/lab.BenchmarkClosForward" || r.Iterations != 2 || r.SimEventsPerOp != 1152 || r.AllocsPerOp != 962 {
		t.Fatalf("ClosForward record %+v", r)
	}
}

func TestOutPathKeepsOlderBaselines(t *testing.T) {
	dir := t.TempDir()
	if got := outPath(dir, "2026-10-17"); got != filepath.Join(dir, "BENCH_2026-10-17.json") {
		t.Fatalf("first baseline of the day: %s", got)
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCH_2026-10-17.json"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := outPath(dir, "2026-10-17"); got != filepath.Join(dir, "BENCH_2026-10-17-2.json") {
		t.Fatalf("second baseline of the day: %s", got)
	}
}

// TestTableNamesExist fails `go test ./...`, not only the gate, when a
// gated benchmark is renamed or deleted: each row must name a func
// Benchmark… declared in its package's tests, and a sub-benchmark's name
// must appear in that func as a string literal.
func TestTableNamesExist(t *testing.T) {
	suffix := regexp.MustCompile(`-\d+$`)
	for _, r := range table {
		if suffix.MatchString(r.bench) {
			t.Errorf("%s: a name ending in -N reads as the GOMAXPROCS suffix", r.bench)
		}
		files, err := filepath.Glob(filepath.Join("..", r.pkg, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		top, sub, _ := strings.Cut(r.bench, "/")
		var fn *ast.FuncDecl
		for _, name := range files {
			f, err := parser.ParseFile(token.NewFileSet(), name, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				if d, ok := d.(*ast.FuncDecl); ok && d.Recv == nil && d.Name.Name == top {
					fn = d
				}
			}
		}
		if fn == nil {
			t.Errorf("%s.%s: no func %s in the package's tests", r.pkg, r.bench, top)
			continue
		}
		named := sub == ""
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Value == strconv.Quote(sub) {
				named = true
			}
			return !named
		})
		if !named {
			t.Errorf("%s.%s: %s never names a sub-benchmark %q", r.pkg, r.bench, top, sub)
		}
	}
}
