// Package store is the durable half of the serving layer's result cache:
// a content-addressed on-disk store keyed by the same canonical request
// keys (dist.Spec.Key) that key the in-memory LRU. The runner's determinism guarantee — byte-identical
// rendered output per (config, seed) — is what makes a durable cache
// sound: a stored body never goes stale, so the only reasons to drop an
// entry are capacity and corruption.
//
// Properties:
//
//   - atomic writes: entries are written to a temp file in the target
//     directory and renamed into place, so readers (including other
//     replicas sharing the directory) never observe a torn entry;
//   - verified reads: every entry carries an xxhash of its payload and its
//     full key; a checksum or key mismatch (bit rot, hash collision,
//     truncated write from a crashed replica) is treated as a miss and the
//     file is removed;
//   - versioned layout: entries live under <dir>/<keyVersion>-f<format>/,
//     so a canonical-key schema bump or an entry-format change lands in a
//     fresh directory and can never alias stale bytes;
//   - bounded size: when resident bytes exceed the configured bound, a GC
//     pass evicts entries in least-recently-accessed order (reads bump the
//     file mtime, which stands in for atime — portable across noatime
//     mounts) until the store is back under budget.
//
// Multiple processes may point at one directory: writes are atomic and
// reads verify, so the worst cross-replica interference is a GC in one
// process turning another's read into a miss.
package store

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/xxhash"
)

// formatVersion is the on-disk entry layout version; it joins the
// directory name so a layout change never parses old files.
const formatVersion = 1

// magic prefixes every entry file.
var magic = [4]byte{'C', 'X', 'R', 'S'}

// headerSize is the fixed-length prelude before the variable sections:
// magic(4) keyLen(4) ctypeLen(4) status(4) bodyLen(8) payloadHash(8).
const headerSize = 4 + 4 + 4 + 4 + 8 + 8

// Config shapes a Store.
type Config struct {
	// Dir is the store root. Created if absent.
	Dir string
	// MaxBytes bounds resident entry bytes (default 256 MiB). GC runs on
	// the writing path once the bound is exceeded.
	MaxBytes int64
	// KeyVersion is the canonical cache-key schema version
	// (experiments.CacheKeyVersion); it becomes a path component.
	KeyVersion string
}

// Entry is one stored response.
type Entry struct {
	Key         string
	Body        []byte
	ContentType string
	Status      int
}

// Stats is a point-in-time counter snapshot.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Puts      uint64 `json:"puts"`
	Evictions uint64 `json:"evictions"`
	Corrupt   uint64 `json:"corrupt"`
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
}

// Store is the handle. Safe for concurrent use.
type Store struct {
	dir      string // <root>/<keyVersion>-f<formatVersion>
	maxBytes int64

	mu      sync.Mutex
	bytes   int64
	entries int
	stats   Stats
}

// Open prepares the versioned store directory and takes stock of any
// entries a previous process (or a sibling replica) left behind.
func Open(cfg Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("store: Dir is required")
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = 256 << 20
	}
	if cfg.KeyVersion == "" {
		return nil, fmt.Errorf("store: KeyVersion is required")
	}
	s := &Store{
		dir:      filepath.Join(cfg.Dir, fmt.Sprintf("%s-f%d", cfg.KeyVersion, formatVersion)),
		maxBytes: cfg.MaxBytes,
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	bytes, entries, _ := s.scan()
	s.bytes, s.entries = bytes, entries
	return s, nil
}

// path maps a canonical key to its entry file: two hex fan-out
// directories over the 64-bit key hash keep any one directory small.
func (s *Store) path(key string) string {
	h := fmt.Sprintf("%016x", xxhash.Sum64([]byte(key), 0))
	return filepath.Join(s.dir, h[:2], h+".res")
}

// Get returns the stored entry for key. A missing file is a plain miss; a
// corrupt or key-colliding file is removed and counted, then reported as a
// miss. A hit bumps the file's mtime, which is the recency clock GC evicts
// by.
func (s *Store) Get(key string) (Entry, bool) {
	p := s.path(key)
	data, err := os.ReadFile(p)
	if err != nil {
		s.count(func(st *Stats) { st.Misses++ })
		return Entry{}, false
	}
	e, err := decodeEntry(data)
	if err != nil || e.Key != key {
		// err != nil: torn write or bit rot. e.Key != key: a 64-bit hash
		// collision — the slot belongs to another key. Either way the bytes
		// must not be served for this key; dropping the file on collision
		// lets the two keys alternate rather than one shadowing the other
		// forever.
		s.removeEntry(p, int64(len(data)))
		s.count(func(st *Stats) { st.Corrupt++; st.Misses++ })
		return Entry{}, false
	}
	now := time.Now()
	_ = os.Chtimes(p, now, now)
	s.count(func(st *Stats) { st.Hits++ })
	return e, true
}

// Put stores an entry, overwriting any previous bytes at its key (the
// determinism contract makes a same-key overwrite byte-identical, so this
// is idempotent). An entry larger than the whole store is ignored. GC runs
// afterwards if the write pushed the store over budget.
func (s *Store) Put(e Entry) error {
	data := encodeEntry(e)
	if int64(len(data)) > s.maxBytes {
		return nil
	}
	p := s.path(e.Key)
	dir := filepath.Dir(p)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	var prev int64
	if fi, err := os.Stat(p); err == nil {
		prev = fi.Size()
	}
	f, err := os.CreateTemp(dir, ".put-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp := f.Name()
	if _, err := f.Write(data); err == nil {
		err = f.Sync()
	} else {
		err = fmt.Errorf("store: write %s: %w", tmp, err)
	}
	if cerr := f.Close(); err == nil && cerr != nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, p)
	}
	if err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}

	s.mu.Lock()
	s.bytes += int64(len(data)) - prev
	if prev == 0 {
		s.entries++
	}
	s.stats.Puts++
	over := s.bytes > s.maxBytes
	s.mu.Unlock()
	if over {
		s.gc()
	}
	return nil
}

// gc walks the store, trusts the walk over the in-memory tally (a sibling
// replica may have added or removed entries), and evicts in oldest-mtime
// order until resident bytes fit the budget again.
func (s *Store) gc() {
	type fileInfo struct {
		path  string
		size  int64
		mtime time.Time
	}
	var files []fileInfo
	var total int64
	_ = filepath.WalkDir(s.dir, func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(p) != ".res" {
			return nil
		}
		fi, err := d.Info()
		if err != nil {
			return nil
		}
		files = append(files, fileInfo{p, fi.Size(), fi.ModTime()})
		total += fi.Size()
		return nil
	})
	sort.Slice(files, func(i, j int) bool {
		if !files[i].mtime.Equal(files[j].mtime) {
			return files[i].mtime.Before(files[j].mtime)
		}
		return files[i].path < files[j].path // stable order for equal stamps
	})
	evicted := 0
	for _, f := range files {
		if total <= s.maxBytes {
			break
		}
		if os.Remove(f.path) == nil {
			total -= f.size
			evicted++
		}
	}
	s.mu.Lock()
	s.bytes = total
	s.entries = len(files) - evicted
	s.stats.Evictions += uint64(evicted)
	s.mu.Unlock()
}

// removeEntry drops a corrupt/colliding file and adjusts the tallies.
func (s *Store) removeEntry(p string, size int64) {
	if os.Remove(p) == nil {
		s.mu.Lock()
		s.bytes -= size
		if s.entries > 0 {
			s.entries--
		}
		s.mu.Unlock()
	}
}

func (s *Store) count(f func(*Stats)) {
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
}

// Snapshot returns the counters with current occupancy filled in.
func (s *Store) Snapshot() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = s.entries
	st.Bytes = s.bytes
	return st
}

// scan sizes the directory at Open.
func (s *Store) scan() (bytes int64, entries int, err error) {
	err = filepath.WalkDir(s.dir, func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(p) != ".res" {
			return nil
		}
		if fi, err := d.Info(); err == nil {
			bytes += fi.Size()
			entries++
		}
		return nil
	})
	return bytes, entries, err
}

// encodeEntry renders the on-disk layout. The payload hash covers key,
// content type and body so any flipped bit fails verification.
func encodeEntry(e Entry) []byte {
	buf := make([]byte, headerSize+len(e.Key)+len(e.ContentType)+len(e.Body))
	copy(buf[0:4], magic[:])
	binary.LittleEndian.PutUint32(buf[4:8], uint32(len(e.Key)))
	binary.LittleEndian.PutUint32(buf[8:12], uint32(len(e.ContentType)))
	binary.LittleEndian.PutUint32(buf[12:16], uint32(e.Status))
	binary.LittleEndian.PutUint64(buf[16:24], uint64(len(e.Body)))
	off := headerSize
	off += copy(buf[off:], e.Key)
	off += copy(buf[off:], e.ContentType)
	copy(buf[off:], e.Body)
	binary.LittleEndian.PutUint64(buf[24:32], xxhash.Sum64(buf[headerSize:], 0))
	return buf
}

// decodeEntry parses and verifies one entry file.
func decodeEntry(data []byte) (Entry, error) {
	if len(data) < headerSize || [4]byte(data[0:4]) != magic {
		return Entry{}, fmt.Errorf("store: bad entry header")
	}
	keyLen := int(binary.LittleEndian.Uint32(data[4:8]))
	ctypeLen := int(binary.LittleEndian.Uint32(data[8:12]))
	status := int(binary.LittleEndian.Uint32(data[12:16]))
	bodyLen := binary.LittleEndian.Uint64(data[16:24])
	sum := binary.LittleEndian.Uint64(data[24:32])
	want := headerSize + keyLen + ctypeLen + int(bodyLen)
	if keyLen < 0 || ctypeLen < 0 || bodyLen > uint64(len(data)) || len(data) != want {
		return Entry{}, fmt.Errorf("store: truncated entry")
	}
	if xxhash.Sum64(data[headerSize:], 0) != sum {
		return Entry{}, fmt.Errorf("store: checksum mismatch")
	}
	off := headerSize
	key := string(data[off : off+keyLen])
	off += keyLen
	ctype := string(data[off : off+ctypeLen])
	off += ctypeLen
	body := make([]byte, bodyLen)
	copy(body, data[off:])
	return Entry{Key: key, Body: body, ContentType: ctype, Status: status}, nil
}
