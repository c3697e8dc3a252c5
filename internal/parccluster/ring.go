package parccluster

import (
	"sort"
	"strconv"
)

// ring is a consistent-hash ring over node ids. Each node owns replicas
// virtual points (ringReplicas on a Router); a key's primary is the first point clockwise from the
// key's hash. Consistent hashing is what makes the shard map stable
// under membership change: adding or removing one node moves only the
// keys in that node's arcs, so a restart does not reshuffle every kind's
// home — the cache-locality argument, but for job routing.
//
// The ring is not safe for concurrent use; the Router guards it with its
// membership mutex. Dead nodes stay on the ring (the Router filters at
// pick time), so a node that restarts reclaims exactly its old arcs.
type ring struct {
	replicas int
	points   []ringPoint // sorted by hash
	nodes    map[string]bool
}

type ringPoint struct {
	hash uint64
	node string
}

func newRing(replicas int) *ring {
	return &ring{replicas: replicas, nodes: map[string]bool{}}
}

// hash64 is FNV-1a over s — stable across processes, which keeps shard
// maps identical on every router that sees the same membership.
func hash64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// add inserts node's virtual points. Adding a present node is a no-op.
func (r *ring) add(node string) {
	if r.nodes[node] {
		return
	}
	r.nodes[node] = true
	for i := 0; i < r.replicas; i++ {
		r.points = append(r.points, ringPoint{
			hash: hash64(node + "#" + strconv.Itoa(i)),
			node: node,
		})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// remove deletes node's virtual points.
func (r *ring) remove(node string) {
	if !r.nodes[node] {
		return
	}
	delete(r.nodes, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// first returns the index of key's primary point, the first point
// clockwise from key's hash, or -1 on an empty ring. Walking the points
// from there, wrapping around, meets every member in one deterministic
// order: the router's fallback order before load enters the picture.
func (r *ring) first(key string) int {
	if len(r.points) == 0 {
		return -1
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// primary returns the node owning key, or "" on an empty ring.
func (r *ring) primary(key string) string {
	i := r.first(key)
	if i < 0 {
		return ""
	}
	return r.points[i].node
}
