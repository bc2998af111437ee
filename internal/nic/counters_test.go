package nic

import (
	"reflect"
	"testing"
)

// fillCounters walks every field of c by reflection and sets it to a value
// derived from base and a per-slot counter, so every uint64, every [8]uint64
// slot and every map entry gets its own number. It fails on a field type it
// does not know, so a new kind of counter cannot slip past the Sub test.
func fillCounters(t *testing.T, c *Counters, base uint64) {
	t.Helper()
	v := reflect.ValueOf(c).Elem()
	next := uint64(1)
	bump := func() uint64 { next++; return base + next*next }
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), v.Type().Field(i).Name
		switch {
		case f.Kind() == reflect.Uint64:
			f.SetUint(bump())
		case f.Kind() == reflect.Array && f.Type().Elem().Kind() == reflect.Uint64:
			for j := 0; j < f.Len(); j++ {
				f.Index(j).SetUint(bump())
			}
		case f.Kind() == reflect.Map && f.Type().Elem().Kind() == reflect.Uint64:
			m := reflect.MakeMap(f.Type())
			for k := 0; k < 3; k++ {
				m.SetMapIndex(reflect.ValueOf(k).Convert(f.Type().Key()), reflect.ValueOf(bump()))
			}
			f.Set(m)
		default:
			t.Fatalf("Counters.%s has type %s, which this test does not cover", name, f.Type())
		}
	}
}

// TestCountersSubEveryField gives every counter a distinct increment and
// checks that Sub returns each one, so a field missing from Sub fails here.
func TestCountersSubEveryField(t *testing.T) {
	var prev, cur Counters
	fillCounters(t, &prev, 1000)
	fillCounters(t, &cur, 5000)
	// A map key that only the newer reading has counts from zero.
	cur.RxMsgs[OpEnable] = 77
	d := cur.Sub(&prev)

	dv, cv, pv := reflect.ValueOf(d), reflect.ValueOf(cur), reflect.ValueOf(prev)
	for i := 0; i < dv.NumField(); i++ {
		name := dv.Type().Field(i).Name
		got, c, p := dv.Field(i), cv.Field(i), pv.Field(i)
		switch got.Kind() {
		case reflect.Uint64:
			if want := c.Uint() - p.Uint(); got.Uint() != want {
				t.Errorf("Sub.%s = %d, want %d", name, got.Uint(), want)
			}
		case reflect.Array:
			for j := 0; j < got.Len(); j++ {
				if want := c.Index(j).Uint() - p.Index(j).Uint(); got.Index(j).Uint() != want {
					t.Errorf("Sub.%s[%d] = %d, want %d", name, j, got.Index(j).Uint(), want)
				}
			}
		case reflect.Map:
			if got.Len() != c.Len() {
				t.Errorf("Sub.%s has %d keys, want %d", name, got.Len(), c.Len())
			}
			for _, k := range c.MapKeys() {
				var pk uint64
				if e := p.MapIndex(k); e.IsValid() {
					pk = e.Uint()
				}
				g := got.MapIndex(k)
				if want := c.MapIndex(k).Uint() - pk; !g.IsValid() || g.Uint() != want {
					t.Errorf("Sub.%s[%v] = %v, want %d", name, k, g, want)
				}
			}
		}
	}
	if d.RxMsgs[OpEnable] != 77 {
		t.Errorf("new key delta = %d, want 77", d.RxMsgs[OpEnable])
	}
}

// TestCountersCloneSharesNoMap: a clone of a NIC's counters equals them and
// keeps its values while the NIC counts on.
func TestCountersCloneSharesNoMap(t *testing.T) {
	n := newCounters()
	fillCounters(t, &n, 0)
	c := n.Clone()
	if !reflect.DeepEqual(c, n) {
		t.Fatalf("clone differs from the original:\n got  %+v\n want %+v", c, n)
	}
	want := n.Clone()
	nv, cv := reflect.ValueOf(&n).Elem(), reflect.ValueOf(c)
	for i := 0; i < nv.NumField(); i++ {
		f := nv.Field(i)
		if f.Kind() != reflect.Map {
			continue
		}
		if f.UnsafePointer() == cv.Field(i).UnsafePointer() {
			t.Errorf("Clone shares the %s map", nv.Type().Field(i).Name)
		}
		for _, k := range f.MapKeys() {
			f.SetMapIndex(k, reflect.ValueOf(uint64(1)))
		}
		f.SetMapIndex(reflect.ValueOf(99).Convert(f.Type().Key()), reflect.ValueOf(uint64(1)))
	}
	if !reflect.DeepEqual(c, want) {
		t.Fatal("writes to the NIC's maps reached the clone")
	}
}
