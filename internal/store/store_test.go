package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func open(t testing.TB, dir string, maxBytes int64) *Store {
	t.Helper()
	s, err := Open(Config{Dir: dir, MaxBytes: maxBytes, KeyVersion: "v1"})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

// TestPutGetRoundTrip: an entry survives a store round trip, including
// status and content type, and a fresh Store over the same directory (a
// restart, or a second replica) sees it.
func TestPutGetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 1<<20)
	e := Entry{Key: "v1/section|fig3|reps=25|seed=7|format=text",
		Body: []byte("rendered section bytes\n"), ContentType: "text/plain; charset=utf-8", Status: 200}
	if err := s.Put(e); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, ok := s.Get(e.Key)
	if !ok {
		t.Fatal("Get missed a just-written entry")
	}
	if got.Key != e.Key || got.ContentType != e.ContentType || got.Status != e.Status ||
		!bytes.Equal(got.Body, e.Body) {
		t.Fatalf("round trip mangled the entry: %+v", got)
	}

	// Durability across process boundaries: reopen and read again.
	s2 := open(t, dir, 1<<20)
	if st := s2.Snapshot(); st.Entries != 1 || st.Bytes == 0 {
		t.Fatalf("reopened store did not take stock: %+v", st)
	}
	got2, ok := s2.Get(e.Key)
	if !ok || !bytes.Equal(got2.Body, e.Body) {
		t.Fatal("entry did not survive reopen")
	}

	if _, ok := s.Get("v1/section|fig3|reps=26|seed=7|format=text"); ok {
		t.Fatal("Get hit for a never-written key")
	}
	st := s.Snapshot()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Fatalf("counters: %+v", st)
	}
}

// TestSameKeyOverwriteIsIdempotent: the determinism contract makes a
// same-key Put byte-identical; the store must not double-count it.
func TestSameKeyOverwriteIsIdempotent(t *testing.T) {
	s := open(t, t.TempDir(), 1<<20)
	e := Entry{Key: "k", Body: []byte("same bytes"), ContentType: "text/plain", Status: 200}
	for i := 0; i < 3; i++ {
		if err := s.Put(e); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	st := s.Snapshot()
	if st.Entries != 1 {
		t.Fatalf("entries = %d after re-puts, want 1", st.Entries)
	}
	single := int64(len(encodeEntry(e)))
	if st.Bytes != single {
		t.Fatalf("bytes = %d after re-puts, want %d", st.Bytes, single)
	}
}

// TestCorruptEntryIsDroppedNotServed: a flipped bit fails the checksum;
// the read reports a miss, counts the corruption, and removes the file so
// the next Put can heal the slot.
func TestCorruptEntryIsDroppedNotServed(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 1<<20)
	e := Entry{Key: "victim", Body: []byte("precious bytes"), ContentType: "text/plain", Status: 200}
	if err := s.Put(e); err != nil {
		t.Fatalf("Put: %v", err)
	}
	p := s.path(e.Key)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatalf("read entry file: %v", err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatalf("corrupt entry file: %v", err)
	}
	if _, ok := s.Get(e.Key); ok {
		t.Fatal("corrupt entry was served")
	}
	if _, err := os.Stat(p); !os.IsNotExist(err) {
		t.Fatal("corrupt entry file was not removed")
	}
	if st := s.Snapshot(); st.Corrupt != 1 {
		t.Fatalf("corruption not counted: %+v", st)
	}
	// Truncation (a torn write from a crashed replica) is handled the same.
	if err := s.Put(e); err != nil {
		t.Fatalf("re-Put: %v", err)
	}
	if err := os.WriteFile(p, data[:10], 0o644); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	if _, ok := s.Get(e.Key); ok {
		t.Fatal("truncated entry was served")
	}
}

// TestGCEvictsLeastRecentlyAccessed: pushing the store over budget evicts
// the coldest entries (oldest mtime) first; a recently read entry
// survives entries written before it.
func TestGCEvictsLeastRecentlyAccessed(t *testing.T) {
	s := open(t, t.TempDir(), 3000)
	body := func(i int) Entry {
		return Entry{Key: strings.Repeat("k", 8) + string(rune('a'+i)),
			Body: bytes.Repeat([]byte{byte(i)}, 900), ContentType: "b", Status: 200}
	}
	// Three entries fit (about 2.8 KB); backdate them so recency is
	// unambiguous even on filesystems with coarse timestamps.
	for i := 0; i < 3; i++ {
		if err := s.Put(body(i)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
		old := time.Now().Add(time.Duration(i-10) * time.Hour)
		if err := os.Chtimes(s.path(body(i).Key), old, old); err != nil {
			t.Fatalf("backdate %d: %v", i, err)
		}
	}
	// Read entry 0 — the oldest-written — to refresh its recency.
	if _, ok := s.Get(body(0).Key); !ok {
		t.Fatal("warm read missed")
	}
	// A fourth entry overflows the budget; GC must evict 1 (now coldest).
	if err := s.Put(body(3)); err != nil {
		t.Fatalf("Put 3: %v", err)
	}
	st := s.Snapshot()
	if st.Evictions == 0 {
		t.Fatalf("no evictions despite overflow: %+v", st)
	}
	if st.Bytes > 3000 {
		t.Fatalf("store over budget after GC: %+v", st)
	}
	if _, ok := s.Get(body(0).Key); !ok {
		t.Fatal("recently read entry was evicted before colder ones")
	}
	if _, ok := s.Get(body(1).Key); ok {
		t.Fatal("coldest entry survived GC")
	}
}

// TestVersionedLayoutNeverAliases: stores opened under different key
// versions see disjoint entry sets even for identical keys.
func TestVersionedLayoutNeverAliases(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(Config{Dir: dir, MaxBytes: 1 << 20, KeyVersion: "v1"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Put(Entry{Key: "k", Body: []byte("v1 bytes"), ContentType: "t", Status: 200}); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Config{Dir: dir, MaxBytes: 1 << 20, KeyVersion: "v2"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get("k"); ok {
		t.Fatal("v2 store served a v1 entry")
	}
	// The layout is physically separate: distinct subdirectories.
	names, _ := filepath.Glob(filepath.Join(dir, "*"))
	if len(names) != 2 {
		t.Fatalf("expected 2 versioned subdirectories, got %v", names)
	}
}

// TestOversizedEntryIgnored: an entry larger than the whole store must not
// wipe every other entry just to fail anyway.
func TestOversizedEntryIgnored(t *testing.T) {
	s := open(t, t.TempDir(), 1024)
	small := Entry{Key: "small", Body: []byte("x"), ContentType: "t", Status: 200}
	if err := s.Put(small); err != nil {
		t.Fatal(err)
	}
	big := Entry{Key: "big", Body: bytes.Repeat([]byte{1}, 4096), ContentType: "t", Status: 200}
	if err := s.Put(big); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("big"); ok {
		t.Fatal("oversized entry was stored")
	}
	if _, ok := s.Get("small"); !ok {
		t.Fatal("small entry lost to an oversized put")
	}
}

// benchBody is a rendered-section-sized body: sections at reps=50 render
// to 0.9–7.4 KB, most near 2 KB.
var benchBody = bytes.Repeat([]byte("0123456789abcdef"), 128)

func benchEntry(i int) Entry {
	return Entry{Key: fmt.Sprintf("v1/section|fig3|reps=50|seed=%d|format=text", i),
		Body: benchBody, ContentType: "text/plain; charset=utf-8", Status: 200}
}

// BenchmarkStorePut times one durable put of a fresh key: fan-out mkdir,
// temp-file write, fsync and rename. fsync time follows the host's disk.
func BenchmarkStorePut(b *testing.B) {
	s := open(b, b.TempDir(), 1<<30)
	b.SetBytes(int64(len(benchBody)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(benchEntry(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreGet times one verified hit: read, decode, checksum and the
// mtime bump that GC evicts by.
func BenchmarkStoreGet(b *testing.B) {
	s := open(b, b.TempDir(), 1<<30)
	keys := make([]string, 64)
	for i := range keys {
		e := benchEntry(i)
		if err := s.Put(e); err != nil {
			b.Fatal(err)
		}
		keys[i] = e.Key
	}
	b.SetBytes(int64(len(benchBody)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get(keys[i%len(keys)]); !ok {
			b.Fatalf("miss on %s", keys[i%len(keys)])
		}
	}
}
