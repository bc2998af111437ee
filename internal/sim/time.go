// Package sim provides a deterministic discrete-event simulation kernel used
// by the RNIC, fabric and host models. Virtual time is expressed in
// picoseconds, which resolves single-byte serialisation at 200 Gbps (40 ps)
// without rounding while still covering ~106 virtual days in an int64.
//
// The kernel is callback-based rather than coroutine-based: every event is a
// closure scheduled at an absolute virtual time, and ties are broken by a
// monotonically increasing sequence number so runs are fully deterministic
// for a given seed.
package sim

import (
	"fmt"
	"time"
)

// Time is a point in virtual time, in picoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in picoseconds.
type Duration int64

// Common durations.
const (
	Picosecond  Duration = 1
	Nanosecond           = 1000 * Picosecond
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns the time as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Microseconds returns the time as floating-point microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Nanoseconds returns the time as floating-point nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

func (t Time) String() string { return Duration(t).String() }

// Seconds returns the duration as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Microseconds returns the duration as floating-point microseconds.
func (d Duration) Microseconds() float64 { return float64(d) / float64(Microsecond) }

// Nanoseconds returns the duration as floating-point nanoseconds.
func (d Duration) Nanoseconds() float64 { return float64(d) / float64(Nanosecond) }

// Std converts a virtual duration to a time.Duration. Sub-nanosecond
// precision is truncated.
func (d Duration) Std() time.Duration { return time.Duration(d/Nanosecond) * time.Nanosecond }

// Scale multiplies d by a dimensionless factor, rounding to the nearest
// picosecond. It is the canonical way to derate or boost service times.
func (d Duration) Scale(f float64) Duration {
	return Duration(float64(d)*f + 0.5)
}

func (d Duration) String() string {
	switch {
	case d < 0:
		return "-" + (-d).String()
	case d < Nanosecond:
		return fmt.Sprintf("%dps", int64(d))
	case d < Microsecond:
		return fmt.Sprintf("%.3gns", d.Nanoseconds())
	case d < Millisecond:
		return fmt.Sprintf("%.4gus", d.Microseconds())
	case d < Second:
		return fmt.Sprintf("%.4gms", float64(d)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.6gs", d.Seconds())
	}
}
