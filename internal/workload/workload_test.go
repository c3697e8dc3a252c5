package workload

import (
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestGenFolderDeterministic(t *testing.T) {
	spec := DefaultFolderSpec(7)
	a, na := GenFolder(spec)
	b, nb := GenFolder(spec)
	if na != nb {
		t.Fatalf("needle counts differ: %d vs %d", na, nb)
	}
	if len(a.Files) != len(b.Files) {
		t.Fatalf("file counts differ")
	}
	for i := range a.Files {
		if a.Files[i].Path != b.Files[i].Path {
			t.Fatalf("path %d differs", i)
		}
		if len(a.Files[i].Lines) != len(b.Files[i].Lines) {
			t.Fatalf("file %d line counts differ", i)
		}
	}
}

func TestGenFolderNeedleCount(t *testing.T) {
	spec := DefaultFolderSpec(3)
	f, needles := GenFolder(spec)
	count := 0
	for _, file := range f.Files {
		for _, line := range file.Lines {
			count += strings.Count(line, spec.NeedleWord)
		}
	}
	if count != needles {
		t.Fatalf("reported %d needles, found %d", needles, count)
	}
	if needles == 0 {
		t.Fatal("expected some needles in a 200-file folder")
	}
}

func TestGenFolderSpecRespected(t *testing.T) {
	spec := FolderSpec{Seed: 1, NumFiles: 17, MinLines: 5, MaxLines: 5, WordsPerLn: 3, Depth: 2}
	f, _ := GenFolder(spec)
	if len(f.Files) != 17 {
		t.Fatalf("NumFiles = %d", len(f.Files))
	}
	for _, file := range f.Files {
		if len(file.Lines) != 5 {
			t.Fatalf("file %s has %d lines, want 5", file.Path, len(file.Lines))
		}
		for _, line := range file.Lines {
			if got := len(strings.Fields(line)); got != 3 {
				t.Fatalf("line has %d words, want 3", got)
			}
		}
	}
	if f.TotalLines() != 17*5 {
		t.Fatalf("TotalLines = %d", f.TotalLines())
	}
}

func TestIntArray(t *testing.T) {
	xs := IntArray(5, 1000, 50)
	if len(xs) != 1000 {
		t.Fatalf("len = %d", len(xs))
	}
	for _, v := range xs {
		if v < 0 || v >= 50 {
			t.Fatalf("value %d out of bound", v)
		}
	}
	ys := IntArray(5, 1000, 50)
	for i := range xs {
		if xs[i] != ys[i] {
			t.Fatal("IntArray not deterministic")
		}
	}
}

func TestNearlySorted(t *testing.T) {
	xs := NearlySorted(2, 1000, 0.01)
	if sort.IntsAreSorted(xs) {
		t.Error("expected some disorder with swapFrac > 0")
	}
	inversions := 0
	for i := 1; i < len(xs); i++ {
		if xs[i] < xs[i-1] {
			inversions++
		}
	}
	if inversions > 100 {
		t.Errorf("too many inversions (%d) for a nearly-sorted array", inversions)
	}
	zs := NearlySorted(2, 100, 0)
	if !sort.IntsAreSorted(zs) {
		t.Error("swapFrac=0 must yield sorted output")
	}
}

func TestGenGraphStructure(t *testing.T) {
	g := GenGraph(9, 500, 4)
	if g.N != 500 {
		t.Fatalf("N = %d", g.N)
	}
	if g.Offs[0] != 0 || g.Offs[g.N] != len(g.Adj) {
		t.Fatal("offset array malformed")
	}
	for v := 0; v < g.N; v++ {
		if g.OutDegree(v) < 1 {
			t.Fatalf("vertex %d has no out-edges", v)
		}
		ring := false
		for _, w := range g.Neighbors(v) {
			if w < 0 || w >= g.N {
				t.Fatalf("edge target %d out of range", w)
			}
			if w == (v+1)%g.N {
				ring = true
			}
		}
		if !ring {
			t.Fatalf("vertex %d missing ring edge", v)
		}
	}
}

// TestTransposeConcurrentFirstUse: goroutines racing on a graph's first
// Transpose call may each build a copy, but all of them get the one copy
// that was stored.
func TestTransposeConcurrentFirstUse(t *testing.T) {
	g := GenGraph(11, 2000, 4)
	const callers = 8
	got := make([]*Graph, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i] = g.Transpose()
		}()
	}
	close(start)
	wg.Wait()
	for i, rg := range got {
		if rg == nil || rg != got[0] {
			t.Fatalf("caller %d got transpose %p, caller 0 got %p", i, rg, got[0])
		}
	}
	if g.Transpose() != got[0] {
		t.Fatal("a later call did not return the stored transpose")
	}
}

func TestGenGraphOffsetsMonotone(t *testing.T) {
	f := func(seed uint64, nRaw, degRaw uint8) bool {
		n := int(nRaw%100) + 2
		deg := int(degRaw%8) + 1
		g := GenGraph(seed, n, deg)
		for v := 0; v < n; v++ {
			if g.Offs[v+1] < g.Offs[v] {
				return false
			}
		}
		return g.Offs[n] == len(g.Adj)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGenImage(t *testing.T) {
	im := GenImage(4, 64, 32)
	if im.W != 64 || im.H != 32 || len(im.Pix) != 64*32 {
		t.Fatal("image dimensions wrong")
	}
	// Content should not be constant.
	first := im.At(0, 0)
	varies := false
	for y := 0; y < im.H && !varies; y++ {
		for x := 0; x < im.W; x++ {
			if im.At(x, y) != first {
				varies = true
				break
			}
		}
	}
	if !varies {
		t.Error("generated image is constant")
	}
}

func TestGenImageSet(t *testing.T) {
	set := GenImageSet(11, 10, 16, 64)
	if len(set) != 10 {
		t.Fatalf("len = %d", len(set))
	}
	for _, im := range set {
		if im.W < 16 || im.W > 64 || im.H < 16 || im.H > 64 {
			t.Fatalf("dims %dx%d out of range", im.W, im.H)
		}
	}
}

func TestGenDocs(t *testing.T) {
	spec := DefaultDocSpec(8)
	docs, hits := GenDocs(spec)
	if len(docs) != spec.NumDocs {
		t.Fatalf("doc count = %d", len(docs))
	}
	count := 0
	for _, d := range docs {
		if len(d.Pages) < spec.MinPages || len(d.Pages) > spec.MaxPages {
			t.Fatalf("doc %s has %d pages", d.Name, len(d.Pages))
		}
		for _, p := range d.Pages {
			if strings.Contains(p, spec.Needle) {
				count++
			}
		}
	}
	if count != hits {
		t.Fatalf("reported %d hits, found %d", hits, count)
	}
}

func TestGenPages(t *testing.T) {
	pages := GenPages(13, 100, 1000, 100000)
	if len(pages) != 100 {
		t.Fatalf("len = %d", len(pages))
	}
	seen := map[string]bool{}
	for _, p := range pages {
		if p.Bytes < 1000 || p.Bytes > 100000 {
			t.Fatalf("page size %d out of range", p.Bytes)
		}
		if seen[p.URL] {
			t.Fatalf("duplicate URL %s", p.URL)
		}
		seen[p.URL] = true
	}
}

func BenchmarkGenFolder(b *testing.B) {
	spec := DefaultFolderSpec(1)
	for i := 0; i < b.N; i++ {
		GenFolder(spec)
	}
}

func BenchmarkGenGraph(b *testing.B) {
	for i := 0; i < b.N; i++ {
		GenGraph(1, 1000, 8)
	}
}
