package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/thu-has/ragnar/internal/nic"
)

// TestTraceOutputDefault: without -o, `trace -text` prints the timeline and
// makes no file, and `trace` still writes Chrome JSON to trace.json.
func TestTraceOutputDefault(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })

	var stdout bytes.Buffer
	if err := runTrace([]string{"-text", "fig9"}, nic.CX5, 1, &stdout); err != nil {
		t.Fatal(err)
	}
	if stdout.Len() == 0 || json.Valid(stdout.Bytes()) {
		t.Fatalf("trace -text printed %d bytes, want a text timeline", stdout.Len())
	}
	if files, _ := os.ReadDir(dir); len(files) != 0 {
		t.Fatalf("trace -text created %s", files[0].Name())
	}

	stdout.Reset()
	if err := runTrace([]string{"fig9"}, nic.CX5, 1, &stdout); err != nil {
		t.Fatal(err)
	}
	if stdout.Len() != 0 {
		t.Fatalf("trace printed %d bytes to stdout, want them in trace.json", stdout.Len())
	}
	b, err := os.ReadFile(filepath.Join(dir, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(b) || !strings.Contains(string(b), "traceEvents") {
		t.Fatalf("trace.json holds no Chrome trace: %.80q", b)
	}
}
