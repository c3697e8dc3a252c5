package parccluster

import (
	"fmt"
	"testing"
)

func TestRingPrimaryStableUnderMembershipChange(t *testing.T) {
	r := newRing(64)
	for i := 0; i < 4; i++ {
		r.add(fmt.Sprintf("node%d", i))
	}
	keys := make([]string, 200)
	before := map[string]string{}
	for i := range keys {
		keys[i] = fmt.Sprintf("kind-%d", i)
		before[keys[i]] = r.primary(keys[i])
	}
	// Adding a fifth node must move only a minority of keys (~1/5 in
	// expectation — allow up to half before calling it broken; a naive
	// mod-N hash would move ~4/5).
	r.add("node4")
	moved := 0
	for _, k := range keys {
		if r.primary(k) != before[k] {
			moved++
		}
	}
	if moved > len(keys)/2 {
		t.Fatalf("adding one node moved %d/%d keys — not consistent hashing", moved, len(keys))
	}
	// Removing it must restore every original assignment exactly.
	r.remove("node4")
	for _, k := range keys {
		if got := r.primary(k); got != before[k] {
			t.Fatalf("key %s moved %s -> %s after add+remove round trip", k, before[k], got)
		}
	}
}

// walkOrder walks r's points from key's primary, wrapping around, and
// lists each member the first time the walk meets it: the order in
// which Router.pickFirst tries nodes.
func walkOrder(r *ring, key string) []string {
	start := r.first(key)
	seen := map[string]bool{}
	var out []string
	for i := range r.points {
		if n := r.points[(start+i)%len(r.points)].node; !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

func TestRingPreferenceCoversAllMembers(t *testing.T) {
	r := newRing(16)
	for i := 0; i < 3; i++ {
		r.add(fmt.Sprintf("n%d", i))
	}
	pref := walkOrder(r, "sort")
	if len(pref) != 3 {
		t.Fatalf("walk meets %d nodes, want 3: %v", len(pref), pref)
	}
	seen := map[string]bool{}
	for _, n := range pref {
		if seen[n] {
			t.Fatalf("walk order repeats %s: %v", n, pref)
		}
		seen[n] = true
	}
	if pref[0] != r.primary("sort") {
		t.Fatalf("walk starts at %s, primary = %s", pref[0], r.primary("sort"))
	}
}

func TestRingEmptyAndSingle(t *testing.T) {
	r := newRing(8)
	if p := r.primary("x"); p != "" {
		t.Fatalf("empty ring primary = %q", p)
	}
	if i := r.first("x"); i != -1 {
		t.Fatalf("empty ring first = %d, want -1", i)
	}
	if pref := walkOrder(r, "x"); pref != nil {
		t.Fatalf("empty ring walk = %v", pref)
	}
	r.add("only")
	for _, k := range []string{"a", "b", "c"} {
		if p := r.primary(k); p != "only" {
			t.Fatalf("single-node ring primary(%s) = %q", k, p)
		}
	}
}

func TestRingBalance(t *testing.T) {
	r := newRing(64)
	for i := 0; i < 4; i++ {
		r.add(fmt.Sprintf("node%d", i))
	}
	counts := map[string]int{}
	const n = 4000
	for i := 0; i < n; i++ {
		counts[r.primary(fmt.Sprintf("key-%d", i))]++
	}
	for node, c := range counts {
		// Expect ~1000 per node; 64 vnodes keeps the spread modest.
		if c < n/10 || c > n/2 {
			t.Fatalf("node %s owns %d/%d keys — ring badly unbalanced: %v", node, c, n, counts)
		}
	}
}
