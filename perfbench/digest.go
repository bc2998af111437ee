package main

import (
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
)

// digest hashes a cell's simulated outcome. Values are rendered with fmt,
// which prints maps in key order, so a digest depends only on the values.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) add(name string, vals ...any) {
	fmt.Fprintf(d.h, "%s=%v;", name, vals)
}

func (d *digest) String() string { return fmt.Sprintf("%016x", d.h.Sum64()) }

// goldenSeed is the recorded default seed: every run first replays cells
// 0..len(want)-1 of it and compares their digests with digests.json.
const goldenSeed = 1

func saveGolden(path string, g map[string][]string) error {
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
