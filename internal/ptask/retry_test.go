// Retry is not a ptask option: a caller that wants one re-runs its task
// on a webfetch.RetryPolicy schedule. This external test package pins
// that schedule next to the rest of ptask's failure semantics.
package ptask_test

import (
	"testing"
	"time"

	"parc751/internal/webfetch"
)

// TestRetryBackoffDeterministicAndCapped: repeated calls give the same
// draw, and every draw lies in the jitter envelope (step/2, step], so it
// is positive and never exceeds Max.
func TestRetryBackoffDeterministicAndCapped(t *testing.T) {
	p := webfetch.RetryPolicy{MaxAttempts: 8, Base: time.Millisecond, Max: 10 * time.Millisecond, Seed: 99}
	for k := 0; k < 8; k++ {
		d := p.Backoff(k)
		if again := p.Backoff(k); again != d {
			t.Fatalf("Backoff(%d) not deterministic: %v vs %v", k, d, again)
		}
		full := min(p.Base<<k, p.Max)
		if d <= full/2 || d > full {
			t.Fatalf("Backoff(%d) = %v outside jitter envelope (%v, %v]", k, d, full/2, full)
		}
	}
}
