package workload

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/xxhash"
)

// Versioned binary trace format: a recorded request stream that replays
// bit-for-bit. Any synthetic stream (or a captured one) can be frozen to a
// Trace and re-run across policies, worker counts and binary versions; the
// golden replay tests diff the replayed report bytes against live
// generation, which is the repo's hardest determinism contract.
//
// Format v1 (all integers little-endian, no padding — the encoding is
// canonical, so decode(encode(t)) == t and encode(decode(b)) == b for
// every accepted b):
//
//	magic   [4]byte  "CXWT"
//	version uint16   (1)
//	flags   uint16   (0; reserved, non-zero rejected)
//	seed    int64    generator seed the stream came from (0 = captured)
//	wlen    uint16   workload-label length (<= 1024)
//	label   [wlen]byte
//	count   uint32   record count; must equal exactly (len-header)/26
//	records [count]record
//
//	record (26 bytes): at int64, key uint64, prompt uint32, decode uint32,
//	cohort uint8, kind uint8
//
// The record is the superset of what the workloads need: serving streams
// use at/prompt/decode/cohort, KV streams use at/kind/key.

// TraceVersion is the current trace-format version.
const TraceVersion = 1

// maxTraceLabel bounds the workload-label field.
const maxTraceLabel = 1024

const (
	traceMagic      = "CXWT"
	traceHeaderLen  = 4 + 2 + 2 + 8 + 2 + 4 // + label
	traceRecordLen  = 26
	maxTraceRecords = (1 << 31) / traceRecordLen // count is also bounded by input length
)

// Request is one replayable request record.
type Request struct {
	// At is the absolute arrival time.
	At sim.Time
	// Key and Kind carry a KV operation (ycsb.OpKind values).
	Key  uint64
	Kind uint8
	// Cohort is the client-cohort index the request was drawn from.
	Cohort uint8
	// Prompt and Decode are the serving token counts.
	Prompt, Decode uint32
}

// Trace is a recorded request stream.
type Trace struct {
	// Workload labels the stream ("infer", "ycsb-A", ...).
	Workload string
	// Seed is the generator seed the stream was recorded from.
	Seed int64
	// Requests are the records in arrival order.
	Requests []Request
}

// Encode renders the trace in format v1.
func (t *Trace) Encode() []byte {
	if len(t.Workload) > maxTraceLabel {
		panic(fmt.Sprintf("workload: trace label %d bytes exceeds %d", len(t.Workload), maxTraceLabel))
	}
	if len(t.Requests) > maxTraceRecords {
		panic(fmt.Sprintf("workload: trace of %d records exceeds the format bound", len(t.Requests)))
	}
	b := make([]byte, 0, traceHeaderLen+len(t.Workload)+len(t.Requests)*traceRecordLen)
	b = append(b, traceMagic...)
	b = appendU16(b, TraceVersion)
	b = appendU16(b, 0) // flags
	b = appendU64(b, uint64(t.Seed))
	b = appendU16(b, uint16(len(t.Workload)))
	b = append(b, t.Workload...)
	b = appendU32(b, uint32(len(t.Requests)))
	for i := range t.Requests {
		b = appendRecord(b, &t.Requests[i])
	}
	return b
}

// Hash is the 64-bit content hash of the canonical encoding — the trace's
// identity in result-cache keys: two traces share a hash input iff they
// encode to the same bytes, which (the encoding being canonical) means
// they are the same stream.
func (t *Trace) Hash() uint64 { return xxhash.Sum64(t.Encode(), 0) }

// Validate checks the stream invariants replay relies on: arrivals in
// non-decreasing order at non-negative times.
func (t *Trace) Validate() error {
	prev := sim.Time(0)
	for i, r := range t.Requests {
		if r.At < prev {
			return fmt.Errorf("workload: trace record %d arrives at %v, before %v", i, r.At, prev)
		}
		prev = r.At
	}
	return nil
}

// DecodeTrace parses an encoded trace, validating the version, flags and
// every length field before allocating: the record allocation is bounded
// by the input length, so arbitrary (fuzzed) inputs cannot force
// pathological allocation, and any accepted input re-encodes to exactly
// the bytes given.
func DecodeTrace(data []byte) (*Trace, error) {
	if len(data) < traceHeaderLen {
		return nil, fmt.Errorf("workload: trace truncated: %d bytes, want >= %d", len(data), traceHeaderLen)
	}
	if string(data[:4]) != traceMagic {
		return nil, fmt.Errorf("workload: bad trace magic %q", data[:4])
	}
	if v := readU16(data[4:]); v != TraceVersion {
		return nil, fmt.Errorf("workload: unsupported trace version %d (have %d)", v, TraceVersion)
	}
	if f := readU16(data[6:]); f != 0 {
		return nil, fmt.Errorf("workload: reserved trace flags %#x set", f)
	}
	seed := int64(readU64(data[8:]))
	wlen := int(readU16(data[16:]))
	if wlen > maxTraceLabel {
		return nil, fmt.Errorf("workload: trace label %d bytes exceeds %d", wlen, maxTraceLabel)
	}
	if len(data) < traceHeaderLen+wlen {
		return nil, fmt.Errorf("workload: trace truncated inside label")
	}
	label := string(data[18 : 18+wlen])
	body := data[18+wlen:]
	count := int64(readU32(body))
	body = body[4:]
	if int64(len(body)) != count*traceRecordLen {
		return nil, fmt.Errorf("workload: trace body %d bytes, want %d records x %d",
			len(body), count, traceRecordLen)
	}
	t := &Trace{Workload: label, Seed: seed, Requests: make([]Request, count)}
	for i := range t.Requests {
		decodeRecord(body[i*traceRecordLen:], &t.Requests[i])
	}
	return t, nil
}

// ---- little-endian primitives ----------------------------------------

func appendU16(b []byte, v uint16) []byte { return append(b, byte(v), byte(v>>8)) }

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(b []byte, v uint64) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func readU16(b []byte) uint16 { return uint16(b[0]) | uint16(b[1])<<8 }

func readU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func readU64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func appendRecord(b []byte, r *Request) []byte {
	b = appendU64(b, uint64(r.At))
	b = appendU64(b, r.Key)
	b = appendU32(b, r.Prompt)
	b = appendU32(b, r.Decode)
	return append(b, r.Cohort, r.Kind)
}

func decodeRecord(b []byte, r *Request) {
	r.At = sim.Time(readU64(b))
	r.Key = readU64(b[8:])
	r.Prompt = readU32(b[16:])
	r.Decode = readU32(b[20:])
	r.Cohort = b[24]
	r.Kind = b[25]
}
