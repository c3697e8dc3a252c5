package workload

import "testing"

// Golden hashes for the corpus generators. Each is FNV-1a 64 over every
// path and line of a folder (every name and page of a corpus), with a
// separator byte after each string so a moved boundary changes the hash.
// A change to a generator that moves any byte, or any xrand draw, fails
// here; the planted counts pin the needle draws on their own.

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	h ^= 0xff // separator: no generated string contains byte 0xff
	h *= fnvPrime
	return h
}

func folderHash(f *Folder) uint64 {
	h := uint64(fnvOffset)
	for _, file := range f.Files {
		h = fnvString(h, file.Path)
		for _, line := range file.Lines {
			h = fnvString(h, line)
		}
	}
	return h
}

func docsHash(docs []*Document) uint64 {
	h := uint64(fnvOffset)
	for _, d := range docs {
		h = fnvString(h, d.Name)
		for _, p := range d.Pages {
			h = fnvString(h, p)
		}
	}
	return h
}

func TestGenFolderGolden(t *testing.T) {
	cases := []struct {
		seed    uint64
		skewed  bool
		hash    uint64
		planted int
	}{
		{1, false, 0xb8df015cc1fe8f6f, 110},
		{1, true, 0x61c01534535e59f2, 60},
		{751, false, 0x132fe892fd139e47, 95},
		{751, true, 0xc7830178a1b95027, 64},
	}
	for _, c := range cases {
		spec := DefaultFolderSpec(c.seed)
		spec.SkewedSizes = c.skewed
		f, planted := GenFolder(spec)
		if h := folderHash(f); h != c.hash || planted != c.planted {
			t.Errorf("GenFolder(seed %d, skewed %v): hash %#x planted %d, want %#x planted %d",
				c.seed, c.skewed, h, planted, c.hash, c.planted)
		}
	}
}

func TestGenDocsGolden(t *testing.T) {
	// P7's straggler: one 1500-page document at the quick config's seed+1.
	giant := DocSpec{Seed: 752, NumDocs: 1, MinPages: 1500, MaxPages: 1500,
		WordsPage: 120, NeedleRate: 0.05, Needle: "pdfNEEDLE"}
	cases := []struct {
		name    string
		spec    DocSpec
		hash    uint64
		planted int
	}{
		{"DefaultDocSpec(1)", DefaultDocSpec(1), 0xbf8d3ea9dd5623, 143},
		{"P7 giant", giant, 0x273eaa81cde453d2, 86},
	}
	for _, c := range cases {
		docs, planted := GenDocs(c.spec)
		if h := docsHash(docs); h != c.hash || planted != c.planted {
			t.Errorf("GenDocs(%s): hash %#x planted %d, want %#x planted %d",
				c.name, h, planted, c.hash, c.planted)
		}
	}
}
