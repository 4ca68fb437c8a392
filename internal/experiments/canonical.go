package experiments

import "fmt"

// Canonical result-cache keys for the serving layer. A key must encode
// everything the rendered bytes depend on — section identity, repetition
// count, root seed, output format — and nothing else: worker counts and
// scheduling are deliberately absent because the runner renders
// byte-identical output for any pool size, which is precisely what makes
// cached section output safe to share between requests.

// CacheKeyVersion names the canonical key schema. It is the "v1" prefix
// every key carries (dist.Spec.Key renders them all, from SectionKey up), surfaced as a constant so the serving layer can
// advertise it (GET /v1/version), the distributed protocol can refuse
// mixed-version peers, and the durable result store can fold it into its
// on-disk paths — a key-schema change then lands in a fresh directory
// instead of aliasing stale entries. Bump it whenever the meaning of an
// existing key changes (renamed sections, reinterpreted fields); purely
// additive key components do not require a bump because they cannot alias.
const CacheKeyVersion = "v1"

// SectionKey is the canonical cache key for rendering the named section
// at the given repetition count, root seed and output format ("text" or
// "json").
func SectionKey(name string, reps int, seed int64, format string) string {
	return fmt.Sprintf("v1/section|%s|reps=%d|seed=%d|format=%s", name, reps, seed, format)
}
