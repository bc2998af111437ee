package main

import (
	"math"
	"slices"
	"testing"

	"github.com/thu-has/ragnar/internal/nic"
)

func TestOffsetList(t *testing.T) {
	cases := []struct {
		name           string
		from, to, step uint64
		relative       bool
		want           []uint64
		wantErr        bool
	}{
		{name: "absolute", from: 0, to: 32, step: 8, want: []uint64{0, 8, 16, 24, 32}},
		{name: "relative skips zero", from: 0, to: 16, step: 8, relative: true, want: []uint64{8, 16}},
		{name: "step past to", from: 4, to: 10, step: 8, want: []uint64{4}},
		{name: "single point", from: 64, to: 64, step: 1, want: []uint64{64}},
		{name: "ends near 2^64", from: math.MaxUint64 - 16, to: math.MaxUint64, step: 8,
			want: []uint64{math.MaxUint64 - 16, math.MaxUint64 - 8, math.MaxUint64}},
		{name: "zero step", from: 0, to: 4096, step: 0, wantErr: true},
		{name: "from past to", from: 8, to: 0, step: 8, wantErr: true},
		{name: "whole space", from: 0, to: math.MaxUint64, step: 1, wantErr: true},
		{name: "too many", from: 0, to: maxOffsets, step: 1, wantErr: true},
	}
	for _, c := range cases {
		got, err := offsetList(c.from, c.to, c.step, c.relative)
		if (err != nil) != c.wantErr {
			t.Errorf("%s: err = %v, want error %v", c.name, err, c.wantErr)
			continue
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%s: offsets = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestParseOp(t *testing.T) {
	for s, want := range map[string]nic.Opcode{
		"write": nic.OpWrite, "read": nic.OpRead, "send": nic.OpSend, "atomic": nic.OpAtomicFAA,
	} {
		if got, err := parseOp(s); err != nil || got != want {
			t.Errorf("parseOp(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, s := range []string{"bogus", "", "WRITE"} {
		if _, err := parseOp(s); err == nil {
			t.Errorf("parseOp(%q) accepted", s)
		}
	}
}
