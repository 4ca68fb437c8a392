package interconnect

import (
	"testing"

	"repro/internal/sim"
)

func TestTransferLatency(t *testing.T) {
	// 64 GB/s, 75 ns one-way: a 64 B transfer arrives at 1 ns + 75 ns.
	l := NewLink("cxl", 75*sim.Nanosecond, 64e9)
	got := l.Transfer(Down, 0, 64)
	if want := 76 * sim.Nanosecond; got != want {
		t.Fatalf("arrival = %v, want %v", got, want)
	}
}

func TestZeroPayloadStillPropagates(t *testing.T) {
	l := NewLink("cxl", 10*sim.Nanosecond, 64e9)
	if got := l.Transfer(Up, 5, 0); got != 5+10*sim.Nanosecond {
		t.Fatalf("arrival = %v", got)
	}
}

func TestSerializationContention(t *testing.T) {
	l := NewLink("cxl", 75*sim.Nanosecond, 64e9)
	// Two back-to-back 64 B transfers: the second serializes behind the
	// first (1 ns each) before propagating.
	a := l.Transfer(Down, 0, 64)
	b := l.Transfer(Down, 0, 64)
	if b != a+sim.Nanosecond {
		t.Fatalf("second arrival %v, want %v", b, a+sim.Nanosecond)
	}
}

func TestFullDuplexIndependence(t *testing.T) {
	l := NewLink("cxl", 75*sim.Nanosecond, 64e9)
	l.Transfer(Down, 0, 64_000) // 1 µs of down occupancy
	// Up direction is unaffected.
	if got := l.Transfer(Up, 0, 64); got != 76*sim.Nanosecond {
		t.Fatalf("up arrival = %v", got)
	}
}

func TestBandwidthEmergesFromOccupancy(t *testing.T) {
	// Saturate the down direction with 1000 × 64 B transfers issued at t=0:
	// total occupancy should make the last arrival reflect ~64 GB/s.
	l := NewLink("cxl", 0, 64e9)
	var last sim.Time
	for i := 0; i < 1000; i++ {
		last = l.Transfer(Down, 0, 64)
	}
	bw := float64(1000*64) / last.Seconds()
	if bw < 63e9 || bw > 65e9 {
		t.Fatalf("emergent bandwidth = %.2f GB/s", bw/1e9)
	}
	if l.Transferred(Down) != 64000 {
		t.Fatalf("Transferred = %d", l.Transferred(Down))
	}
}

func TestReset(t *testing.T) {
	l := NewLink("x", 10, 64e9)
	l.Transfer(Down, 0, 64)
	l.Reset()
	if l.Transferred(Down) != 0 {
		t.Fatal("Reset did not clear counters")
	}
	if got := l.Transfer(Down, 0, 64); got != sim.Nanosecond+10 {
		t.Fatalf("post-reset transfer = %v", got)
	}
}

func TestBadLinkPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewLink("bad", -1, 64e9) },
		func() { NewLink("bad", 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestDirString(t *testing.T) {
	if Down.String() != "down" || Up.String() != "up" {
		t.Fatal("Dir.String wrong")
	}
}
