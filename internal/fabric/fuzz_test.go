package fabric

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// Topology byte format for FuzzTopology: one byte n (1 + n%maxFuzzNodes
// nodes), then three bytes per node (kind, knob1, knob2), then five bytes
// per link (a, b, one-way ns, credits, GB/s). Knobs and link parameters
// are signed bytes, so the decoder reaches the negative values Validate
// must reject; zero takes the Build default.
const (
	maxFuzzNodes = 16
	maxFuzzLinks = 64
)

// decodeTopology maps arbitrary bytes to a topology of at most
// maxFuzzNodes nodes and maxFuzzLinks links; it never fails.
func decodeTopology(data []byte) Topology {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	var t Topology
	n := 1 + int(next())%maxFuzzNodes
	for i := 0; i < n; i++ {
		// Kind 3 is past Switch: an unknown kind Validate must reject.
		node := NodeSpec{ID: fmt.Sprintf("n%d", i), Kind: NodeKind(next() % 4)}
		k1, k2 := int8(next()), int8(next())
		switch node.Kind {
		case Host:
			node.Cores = int(k1)
		case Switch:
			node.PortCredits = int(k1)
			node.Forward = sim.Time(k2) * sim.Nanosecond
		}
		t.Nodes = append(t.Nodes, node)
	}
	for len(data) > 0 && len(t.Links) < maxFuzzLinks {
		t.Links = append(t.Links, LinkSpec{
			A:           t.Nodes[int(next())%n].ID,
			B:           t.Nodes[int(next())%n].ID,
			OneWay:      sim.Time(int8(next())) * sim.Nanosecond,
			Credits:     int(int8(next())),
			BytesPerSec: float64(int8(next())) * 1e9,
		})
	}
	return t
}

// encodeTopology is decodeTopology's inverse for the corpus seeds: knobs
// and link parameters must be zero (defaults).
func encodeTopology(t Topology) []byte {
	idx := map[string]byte{}
	b := []byte{byte(len(t.Nodes) - 1)}
	for i, n := range t.Nodes {
		idx[n.ID] = byte(i)
		b = append(b, byte(n.Kind), 0, 0)
	}
	for _, l := range t.Links {
		b = append(b, idx[l.A], idx[l.B], 0, 0, 0)
	}
	return b
}

// FuzzTopology drives bounded random graphs through the fabric's
// compile path: Validate never panics, every topology it accepts
// builds, and a transfer each way between every host and every expander
// finds a route.
func FuzzTopology(f *testing.F) {
	f.Add(encodeTopology(star(2, 1)))
	f.Add(encodeTopology(star(4, 2)))
	f.Fuzz(func(t *testing.T, data []byte) {
		topo := decodeTopology(data)
		if topo.Validate() != nil {
			return
		}
		fab, err := Build(topo, nil)
		if err != nil {
			t.Fatalf("Validate accepted a topology Build rejects: %v\n%+v", err, topo)
		}
		for _, h := range fab.Hosts() {
			for _, x := range fab.Expanders() {
				if done := fab.Transfer(h, x, 64, 0); done <= 0 {
					t.Fatalf("transfer %s→%s done at %v", h, x, done)
				}
				fab.Transfer(x, h, 64, 0)
			}
		}
	})
}

// TestTopologyCodecSeeds checks that the fuzz corpus seeds decode to the
// star they encode, so the fuzzer starts from valid fabrics.
func TestTopologyCodecSeeds(t *testing.T) {
	for _, s := range []Topology{star(2, 1), star(4, 2)} {
		got := decodeTopology(encodeTopology(s))
		if len(got.Nodes) != len(s.Nodes) || len(got.Links) != len(s.Links) {
			t.Fatalf("decoded %d nodes / %d links, want %d / %d",
				len(got.Nodes), len(got.Links), len(s.Nodes), len(s.Links))
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("decoded seed invalid: %v", err)
		}
		if _, err := Build(got, nil); err != nil {
			t.Fatal(err)
		}
	}
}
