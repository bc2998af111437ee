package appdb

import (
	"testing"

	"github.com/thu-has/ragnar/internal/lab"
	"github.com/thu-has/ragnar/internal/nic"
)

func newDB(t *testing.T, workers int) *DB {
	t.Helper()
	cfg := lab.DefaultConfig(nic.CX5)
	cfg.Clients = workers
	c := lab.New(cfg)
	db, err := New(c, 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func mkRows(n int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		rows[i].Key = uint64(i)
		rows[i].Payload[0] = byte(i)
		rows[i].Payload[1] = byte(i >> 8)
	}
	return rows
}

func TestShufflePlacement(t *testing.T) {
	db := newDB(t, 3)
	rows := mkRows(500)
	db.LoadTable("t", rows)
	if err := db.Shuffle("t"); err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for _, w := range db.Workers() {
		for _, r := range w.Local["t"] {
			if int(r.Key%3) != w.ID {
				t.Fatalf("row %d landed on worker %d", r.Key, w.ID)
			}
			if seen[r.Key] {
				t.Fatalf("row %d duplicated", r.Key)
			}
			seen[r.Key] = true
			// Payload survived the round trip.
			if r.Payload[0] != byte(r.Key) || r.Payload[1] != byte(r.Key>>8) {
				t.Fatalf("row %d payload corrupted", r.Key)
			}
		}
	}
	if len(seen) != len(rows) {
		t.Fatalf("shuffle lost rows: %d of %d", len(seen), len(rows))
	}
}

// Two identical shuffles in one process post the same WRIDs and so end
// with the same completion digest: WRIDs are numbered per DB, not per
// process.
func TestShuffleRepeatDigest(t *testing.T) {
	run := func() uint64 {
		db := newDB(t, 3)
		db.LoadTable("t", mkRows(200))
		if err := db.Shuffle("t"); err != nil {
			t.Fatal(err)
		}
		return db.cluster.CompletionDigest()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("repeated shuffle digest %016x, first %016x", b, a)
	}
}

func TestHashJoinCount(t *testing.T) {
	db := newDB(t, 2)
	// left has keys 0..99, right has two copies of each even key:
	// expected matches = 50 keys x 1 x 2 = 100.
	left := mkRows(100)
	var right []Row
	for k := uint64(0); k < 100; k += 2 {
		right = append(right, Row{Key: k}, Row{Key: k})
	}
	db.LoadTable("l", left)
	db.LoadTable("r", right)
	if err := db.Shuffle("l"); err != nil {
		t.Fatal(err)
	}
	if err := db.Shuffle("r"); err != nil {
		t.Fatal(err)
	}
	got, err := db.HashJoin("l", "r")
	if err != nil {
		t.Fatal(err)
	}
	if got != 100 {
		t.Fatalf("join count = %d, want 100", got)
	}
}

func TestJoinWithoutMatches(t *testing.T) {
	db := newDB(t, 2)
	db.LoadTable("l", mkRows(40))
	var right []Row
	for k := uint64(1000); k < 1040; k++ {
		right = append(right, Row{Key: k})
	}
	db.LoadTable("r", right)
	db.Shuffle("l")
	db.Shuffle("r")
	got, err := db.HashJoin("l", "r")
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("join count = %d, want 0", got)
	}
}

func TestShufflePhasesPlateau(t *testing.T) {
	phases := ShufflePhases(nic.CX5, 3, 400, 0)
	if len(phases) != 1 {
		t.Fatalf("shuffle should be one sustained phase, got %d", len(phases))
	}
	if phases[0].Dur <= 0 {
		t.Fatal("non-positive shuffle duration")
	}
	// Larger datasets shuffle longer.
	longer := ShufflePhases(nic.CX5, 3, 800, 0)
	if longer[0].Dur <= phases[0].Dur {
		t.Fatal("shuffle duration must scale with data size")
	}
}

func TestJoinPhasesTeeth(t *testing.T) {
	phases := JoinPhases(nic.CX5, 3, 5, 0)
	if len(phases) != 5 {
		t.Fatalf("join rounds = %d", len(phases))
	}
	for i := 1; i < len(phases); i++ {
		gap := phases[i].Start - (phases[i-1].Start + phases[i-1].Dur)
		if gap <= 0 {
			t.Fatal("join bursts must be separated by compute gaps")
		}
	}
}

func TestRowCodec(t *testing.T) {
	r := Row{Key: 0xdeadbeef}
	copy(r.Payload[:], "hello")
	buf := make([]byte, RowBytes)
	encodeRow(r, buf)
	got := decodeRow(buf)
	if got != r {
		t.Fatalf("codec mismatch: %+v vs %+v", got, r)
	}
}

func TestSortMergeJoinCount(t *testing.T) {
	db := newDB(t, 2)
	left := mkRows(100)
	var right []Row
	for k := uint64(0); k < 100; k += 2 {
		right = append(right, Row{Key: k}, Row{Key: k})
	}
	db.LoadTable("l", left)
	db.LoadTable("r", right)
	if err := db.Shuffle("l"); err != nil {
		t.Fatal(err)
	}
	if err := db.Shuffle("r"); err != nil {
		t.Fatal(err)
	}
	got, err := db.SortMergeJoin("l", "r")
	if err != nil {
		t.Fatal(err)
	}
	if got != 100 {
		t.Fatalf("sort-merge join count = %d, want 100", got)
	}
	// Cross-check: hash join agrees.
	hj, err := db.HashJoin("l", "r")
	if err != nil {
		t.Fatal(err)
	}
	if hj != got {
		t.Fatalf("join strategies disagree: smj=%d hash=%d", got, hj)
	}
}

func TestSortMergeJoinDuplicateRuns(t *testing.T) {
	db := newDB(t, 1)
	// 3 copies of key 5 on the left, 2 on the right: 6 matches.
	db.LoadTable("l", []Row{{Key: 5}, {Key: 5}, {Key: 5}, {Key: 1}})
	db.LoadTable("r", []Row{{Key: 5}, {Key: 5}, {Key: 9}})
	got, err := db.SortMergeJoin("l", "r")
	if err != nil {
		t.Fatal(err)
	}
	if got != 6 {
		t.Fatalf("duplicate-run count = %d, want 6", got)
	}
}

func TestSortMergePhasesSustainedRead(t *testing.T) {
	phases := SortMergePhases(nic.CX5, 3, 2000, 0)
	if len(phases) != 1 {
		t.Fatalf("phases = %d", len(phases))
	}
	if phases[0].Flow.Op != nic.OpRead {
		t.Fatal("sort-merge streams via reads")
	}
	if phases[0].Dur <= 0 {
		t.Fatal("non-positive duration")
	}
}
