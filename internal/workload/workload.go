// Package workload generates the synthetic inputs for every reproduced
// experiment: text-file folder trees (project 4), image sets (project 1),
// numeric arrays (project 2), graphs (project 3), paged documents standing
// in for PDFs (project 7), and web-page sets (project 10).
//
// The paper's students measured their projects on ad-hoc local data (their
// own photo folders, PDF collections, web pages). None of that data is
// available, so every generator here is deterministic from a seed: two
// runs of any experiment produce byte-identical inputs, which is what lets
// EXPERIMENTS.md record stable numbers.
package workload

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync/atomic"

	"parc751/internal/xrand"
)

// Dictionary is the word pool used when synthesising prose. It is small on
// purpose: repeated words give the text-search experiments realistic hit
// densities.
var Dictionary = []string{
	"parallel", "task", "thread", "core", "memory", "cache", "lock",
	"barrier", "speedup", "granularity", "schedule", "queue", "stack",
	"reduce", "map", "graph", "matrix", "vector", "sort", "search",
	"student", "research", "project", "group", "lecture", "seminar",
	"auckland", "engineering", "software", "java", "pyjama", "parc",
}

// TextFile is one synthetic file in a folder tree. GenFolder builds a
// file's lines as slices of one backing string, so holding any one line
// (a retained textsearch.Match.Text, say) keeps the whole file's text
// alive.
type TextFile struct {
	Path  string
	Lines []string
}

// Folder is a synthetic directory tree of text files, the input to the
// text-search project. Files are stored flat with slash-separated paths;
// nothing in the experiments needs a real filesystem, and keeping the tree
// in memory makes runs hermetic and fast.
type Folder struct {
	Files []TextFile
}

// FolderSpec configures GenFolder.
type FolderSpec struct {
	Seed        uint64
	NumFiles    int
	MinLines    int
	MaxLines    int
	WordsPerLn  int
	Depth       int     // directory nesting depth
	NeedleRate  float64 // probability a line carries the needle word
	NeedleWord  string  // the planted search target
	SkewedSizes bool    // if true, file lengths follow a Zipf-like skew
}

// DefaultFolderSpec returns a medium folder: 200 files, prose lines, and a
// planted needle on about 0.5% of lines.
func DefaultFolderSpec(seed uint64) FolderSpec {
	return FolderSpec{
		Seed: seed, NumFiles: 200, MinLines: 20, MaxLines: 200,
		WordsPerLn: 8, Depth: 3, NeedleRate: 0.005, NeedleWord: "concurrencyNEEDLE",
	}
}

// GenFolder synthesises a folder tree per spec. The planted needle count is
// returned so tests can assert the searcher finds every occurrence.
func GenFolder(spec FolderSpec) (*Folder, int) {
	r := xrand.New(spec.Seed)
	f := &Folder{Files: make([]TextFile, 0, spec.NumFiles)}
	words := make([]int, spec.WordsPerLn)
	needles := 0
	for i := 0; i < spec.NumFiles; i++ {
		path := make([]byte, 0, 64)
		depth := 1 + r.Intn(maxInt(spec.Depth, 1))
		for d := 0; d < depth; d++ {
			path = append(path, "dir"...)
			path = append(path, byte('0'+r.Intn(4)), '/')
		}
		path = append(path, "file"...)
		path = appendPadded(path, i, 4)
		path = append(path, ".txt"...)

		span := spec.MaxLines - spec.MinLines + 1
		n := spec.MinLines
		if span > 1 {
			if spec.SkewedSizes {
				// Square the uniform draw: most files small, a few large.
				u := r.Float64()
				n += int(u * u * float64(span-1))
			} else {
				n += r.Intn(span)
			}
		}
		lines, planted := genText(r, n, words, spec.NeedleWord, spec.NeedleRate)
		needles += planted
		f.Files = append(f.Files, TextFile{Path: string(path), Lines: lines})
	}
	return f, needles
}

// needleWord marks the planted needle in a unit's word draws.
const needleWord = -1

// genText synthesises n units (the lines of a file or the pages of a
// document) of len(words) dictionary words each, joined by single
// spaces. With probability rate a unit has one word replaced by needle.
// It returns the units and how many of them carry the needle.
//
// The units are slices of one string built with one exact-size
// allocation: a first pass makes every draw to size the text, then r is
// rewound and a second pass makes the same draws again and writes them.
// Per unit the draws are the word indices, then the needle coin (only
// when needle is set), then the needle's position. words is scratch for
// one unit's draws.
func genText(r *xrand.Rand, n int, words []int, needle string, rate float64) ([]string, int) {
	saved := *r
	size, planted := 0, 0
	for u := 0; u < n; u++ {
		if drawUnit(r, words, needle, rate) {
			planted++
		}
		for w, i := range words {
			if w > 0 {
				size++
			}
			size += len(wordAt(i, needle))
		}
	}
	*r = saved

	units := make([]string, n)
	var sb strings.Builder
	sb.Grow(size)
	for u := range units {
		start := sb.Len()
		drawUnit(r, words, needle, rate)
		for w, i := range words {
			if w > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(wordAt(i, needle))
		}
		// sb never grows past size, so its buffer never moves and every
		// earlier unit still points into it.
		units[u] = sb.String()[start:]
	}
	return units, planted
}

// drawUnit draws one unit's words into words and reports whether the
// needle replaced one of them.
func drawUnit(r *xrand.Rand, words []int, needle string, rate float64) bool {
	for w := range words {
		words[w] = r.Intn(len(Dictionary))
	}
	if needle != "" && r.Float64() < rate {
		words[r.Intn(len(words))] = needleWord
		return true
	}
	return false
}

func wordAt(i int, needle string) string {
	if i == needleWord {
		return needle
	}
	return Dictionary[i]
}

// appendPadded appends i (i >= 0) in decimal, zero-padded to width
// digits, as fmt's %0*d does.
func appendPadded(b []byte, i, width int) []byte {
	var buf [20]byte
	digits := strconv.AppendInt(buf[:0], int64(i), 10)
	for n := len(digits); n < width; n++ {
		b = append(b, '0')
	}
	return append(b, digits...)
}

// TotalLines reports the number of lines across all files.
func (f *Folder) TotalLines() int {
	n := 0
	for _, file := range f.Files {
		n += len(file.Lines)
	}
	return n
}

// IntArray returns n pseudo-random ints in [0, bound), the quicksort input.
func IntArray(seed uint64, n, bound int) []int {
	r := xrand.New(seed)
	xs := make([]int, n)
	for i := range xs {
		xs[i] = r.Intn(bound)
	}
	return xs
}

// NearlySorted returns an ascending array with swapFrac·n random swaps
// applied — the quicksort adversarial case students compared against.
func NearlySorted(seed uint64, n int, swapFrac float64) []int {
	r := xrand.New(seed)
	xs := make([]int, n)
	for i := range xs {
		xs[i] = i
	}
	swaps := int(swapFrac * float64(n))
	for s := 0; s < swaps; s++ {
		i, j := r.Intn(n), r.Intn(n)
		xs[i], xs[j] = xs[j], xs[i]
	}
	return xs
}

// Graph is a directed graph in compact adjacency form (CSR-like), the
// input for the graph-processing kernels. A Graph is read-only once
// built: no code writes N, Offs or Adj after the constructor returns,
// which is what lets it keep its transpose (see Transpose).
type Graph struct {
	N    int
	Offs []int // len N+1
	Adj  []int

	transpose atomic.Pointer[Graph] // built on first Transpose call
}

// OutDegree returns the out-degree of vertex v.
func (g *Graph) OutDegree(v int) int { return g.Offs[v+1] - g.Offs[v] }

// Neighbors returns the adjacency slice of vertex v (not a copy).
func (g *Graph) Neighbors(v int) []int { return g.Adj[g.Offs[v]:g.Offs[v+1]] }

// Transpose returns the in-edge graph (every edge flipped), with each
// vertex's in-neighbours in source-vertex order so a gather over them
// sums in the same order as a push over the out-edges. It is built on
// the first call and kept: callers racing on that first call each build
// a copy and one CompareAndSwap wins, so every caller gets the same
// pointer and the losers' copies are garbage.
func (g *Graph) Transpose() *Graph {
	if t := g.transpose.Load(); t != nil {
		return t
	}
	g.transpose.CompareAndSwap(nil, g.buildTranspose())
	return g.transpose.Load()
}

func (g *Graph) buildTranspose() *Graph {
	indeg := make([]int, g.N)
	for v := 0; v < g.N; v++ {
		for _, w := range g.Neighbors(v) {
			indeg[w]++
		}
	}
	t := &Graph{N: g.N, Offs: make([]int, g.N+1)}
	total := 0
	for v := 0; v < g.N; v++ {
		t.Offs[v] = total
		total += indeg[v]
	}
	t.Offs[g.N] = total
	t.Adj = make([]int, total)
	fill := indeg // reused as each vertex's next free slot
	copy(fill, t.Offs[:g.N])
	for v := 0; v < g.N; v++ {
		for _, w := range g.Neighbors(v) {
			t.Adj[fill[w]] = v
			fill[w]++
		}
	}
	return t
}

// GenGraph builds a random directed graph with n vertices and average
// out-degree deg. Edge endpoints follow a mild power-law preference so
// PageRank has non-trivial structure. Vertex i always has an edge to
// (i+1) mod n, keeping the graph connected for BFS.
func GenGraph(seed uint64, n, deg int) *Graph {
	r := xrand.New(seed)
	adjs := make([][]int, n)
	zipf := xrand.NewZipfGen(r, n, 1.05)
	for v := 0; v < n; v++ {
		d := 1 + r.Intn(maxInt(2*deg-1, 1))
		lst := make([]int, 0, d+1)
		lst = append(lst, (v+1)%n)
		for e := 0; e < d; e++ {
			lst = append(lst, zipf.Next())
		}
		adjs[v] = lst
	}
	g := &Graph{N: n, Offs: make([]int, n+1)}
	total := 0
	for v, lst := range adjs {
		g.Offs[v] = total
		total += len(lst)
	}
	g.Offs[n] = total
	g.Adj = make([]int, 0, total)
	for _, lst := range adjs {
		g.Adj = append(g.Adj, lst...)
	}
	return g
}

// Image is a synthetic grayscale image (the thumbnail project input).
// A full RGBA image adds nothing to the parallelisation study, and a
// single channel keeps memory small on the test host.
type Image struct {
	W, H int
	Pix  []uint8 // row-major, len W*H
}

// At returns the pixel at (x, y).
func (im *Image) At(x, y int) uint8 { return im.Pix[y*im.W+x] }

// GenImage synthesises a W×H image with smooth gradients plus noise so
// scaling has real content to average.
func GenImage(seed uint64, w, h int) *Image {
	r := xrand.New(seed)
	im := &Image{W: w, H: h, Pix: make([]uint8, w*h)}
	fx := float64(r.Intn(7) + 1)
	fy := float64(r.Intn(7) + 1)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			base := 128 + 64*sin01(fx*float64(x)/float64(w))*sin01(fy*float64(y)/float64(h))
			noise := float64(r.Intn(32)) - 16
			v := base + noise
			if v < 0 {
				v = 0
			}
			if v > 255 {
				v = 255
			}
			im.Pix[y*w+x] = uint8(v)
		}
	}
	return im
}

// sin01 is a cheap sine surrogate mapping [0,1] to [-1,1] with two lobes;
// using a polynomial keeps image generation fast and allocation-free.
func sin01(t float64) float64 {
	t -= float64(int(t))
	return 16 * t * (1 - t) * (t - 0.5)
}

// GenImageSet returns n images whose dimensions vary in [minDim, maxDim].
func GenImageSet(seed uint64, n, minDim, maxDim int) []*Image {
	r := xrand.New(seed)
	out := make([]*Image, n)
	for i := range out {
		w := minDim + r.Intn(maxDim-minDim+1)
		h := minDim + r.Intn(maxDim-minDim+1)
		out[i] = GenImage(r.Uint64(), w, h)
	}
	return out
}

// Document is a paged text document standing in for a PDF (project 7).
// GenDocs builds a document's pages as slices of one backing string, so
// holding any one page keeps the whole document's text alive.
type Document struct {
	Name  string
	Pages []string
}

// DocSpec configures GenDocs.
type DocSpec struct {
	Seed       uint64
	NumDocs    int
	MinPages   int
	MaxPages   int
	WordsPage  int
	NeedleRate float64 // probability a page contains the needle
	Needle     string
}

// DefaultDocSpec returns a 50-document corpus with the needle on ~5% of pages.
func DefaultDocSpec(seed uint64) DocSpec {
	return DocSpec{Seed: seed, NumDocs: 50, MinPages: 10, MaxPages: 100,
		WordsPage: 120, NeedleRate: 0.05, Needle: "pdfNEEDLE"}
}

// GenDocs synthesises the document corpus and returns the number of pages
// that contain the needle.
func GenDocs(spec DocSpec) ([]*Document, int) {
	r := xrand.New(spec.Seed)
	docs := make([]*Document, spec.NumDocs)
	words := make([]int, spec.WordsPage)
	hits := 0
	for i := range docs {
		span := spec.MaxPages - spec.MinPages + 1
		np := spec.MinPages
		if span > 1 {
			np += r.Intn(span)
		}
		pages, planted := genText(r, np, words, spec.Needle, spec.NeedleRate)
		hits += planted
		name := make([]byte, 0, 16)
		name = append(name, "doc"...)
		name = appendPadded(name, i, 3)
		name = append(name, ".pdf"...)
		docs[i] = &Document{Name: string(name), Pages: pages}
	}
	return docs, hits
}

// Page is one synthetic web page (project 10): a URL plus a body size that
// drives the simulated transfer time.
type Page struct {
	URL   string
	Bytes int
}

// GenPages returns n synthetic pages with body sizes log-uniform between
// minBytes and maxBytes.
func GenPages(seed uint64, n, minBytes, maxBytes int) []Page {
	r := xrand.New(seed)
	out := make([]Page, n)
	for i := range out {
		// Log-uniform sizes: real page weights span orders of magnitude.
		u := r.Float64()
		size := float64(minBytes) * math.Pow(float64(maxBytes)/float64(minBytes), u)
		out[i] = Page{
			URL:   fmt.Sprintf("http://parc.example/page/%05d", i),
			Bytes: int(size),
		}
	}
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
