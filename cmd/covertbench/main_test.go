package main

import (
	"testing"

	"github.com/thu-has/ragnar/internal/bitstream"
)

func TestPayloadBits(t *testing.T) {
	if got, err := payloadBits(16, "", 3); err != nil || len(got) != 16 {
		t.Fatalf("random payload: %d bits, %v; want 16", len(got), err)
	}
	for _, n := range []int{0, -1} {
		if _, err := payloadBits(n, "", 3); err == nil {
			t.Errorf("-bits %d accepted", n)
		}
	}
	// A message overrides -bits, even an invalid one.
	got, err := payloadBits(-1, "hi", 3)
	if err != nil {
		t.Fatal(err)
	}
	if want := bitstream.FromBytes([]byte("hi")); got.String() != want.String() {
		t.Fatalf("message payload %s, want %s", got, want)
	}
}
