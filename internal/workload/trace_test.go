package workload_test

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

func sampleTrace() *workload.Trace {
	return &workload.Trace{
		Workload: "infer",
		Seed:     42,
		Requests: []workload.Request{
			{At: 0, Key: 7, Kind: 1, Cohort: 0, Prompt: 24, Decode: 8},
			{At: 1_000_000, Key: 9, Kind: 0, Cohort: 2, Prompt: 64, Decode: 24},
			{At: 1_000_000, Key: 0, Kind: 2, Cohort: 255, Prompt: 1, Decode: 1},
			{At: sim.Forever, Key: ^uint64(0), Kind: 255, Cohort: 1, Prompt: ^uint32(0), Decode: 3},
		},
	}
}

func TestTraceRoundTrip(t *testing.T) {
	src := sampleTrace()
	enc := src.Encode()
	got, err := workload.DecodeTrace(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, src) {
		t.Fatalf("decode(encode(t)) != t:\n got  %+v\n want %+v", got, src)
	}
	// The encoding is canonical: re-encoding reproduces the exact bytes.
	if !bytes.Equal(got.Encode(), enc) {
		t.Fatal("encode(decode(b)) != b")
	}
}

func TestTraceEmptyRoundTrip(t *testing.T) {
	src := &workload.Trace{Workload: "", Seed: 0}
	got, err := workload.DecodeTrace(src.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Workload != "" || got.Seed != 0 || len(got.Requests) != 0 {
		t.Fatalf("empty trace round-trip: %+v", got)
	}
}

func TestTraceHashIdentity(t *testing.T) {
	a, b := sampleTrace(), sampleTrace()
	if a.Hash() != b.Hash() {
		t.Fatal("identical traces hash differently")
	}
	b.Requests[1].Key++
	if a.Hash() == b.Hash() {
		t.Fatal("different streams share a hash")
	}
	c := sampleTrace()
	c.Seed++
	if a.Hash() == c.Hash() {
		t.Fatal("different seeds share a hash")
	}
}

func TestTraceValidateOrdering(t *testing.T) {
	good := sampleTrace()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	bad := sampleTrace()
	bad.Requests[2].At = 1 // before record 1
	if err := bad.Validate(); err == nil {
		t.Fatal("out-of-order arrivals accepted")
	}
}

func TestDecodeTraceRejectsMalformed(t *testing.T) {
	enc := sampleTrace().Encode()
	cases := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"short header", func(b []byte) []byte { return b[:10] }},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }},
		{"future version", func(b []byte) []byte { b[4] = 99; return b }},
		{"reserved flags", func(b []byte) []byte { b[6] = 1; return b }},
		{"label overruns input", func(b []byte) []byte { b[16] = 0xff; b[17] = 0x3; return b }},
		{"label exceeds bound", func(b []byte) []byte { b[16] = 0xff; b[17] = 0xff; return b }},
		{"count too large", func(b []byte) []byte { b[len(b)-4*26-4] = 0xff; return b }},
		{"truncated record", func(b []byte) []byte { return b[:len(b)-1] }},
		{"trailing garbage", func(b []byte) []byte { return append(b, 0) }},
	}
	for _, tc := range cases {
		buf := append([]byte(nil), enc...)
		if _, err := workload.DecodeTrace(tc.mut(buf)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestTraceEncodePanicsOnHugeLabel(t *testing.T) {
	tr := &workload.Trace{Workload: string(make([]byte, 2000))}
	defer func() {
		if recover() == nil {
			t.Fatal("oversized label encoded")
		}
	}()
	tr.Encode()
}
