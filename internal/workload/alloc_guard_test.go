//go:build !race

// Allocation-budget guards for the corpus generators. Excluded under
// -race because the race runtime's own instrumentation allocates.

package workload

import "testing"

// TestGenDocsAllocGuard pins what synthesising one document allocates:
// the document slice, the Document, its name, its page headers, the one
// string every page slices, and the per-call draw scratch. Nothing is
// allocated per page.
func TestGenDocsAllocGuard(t *testing.T) {
	spec := DefaultDocSpec(1)
	spec.NumDocs = 1
	const budget = 8
	if got := testing.AllocsPerRun(50, func() { GenDocs(spec) }); got > budget {
		t.Fatalf("GenDocs with 1 document allocates %v objects/call, want <= %d", got, budget)
	}
}

// TestGenFolderAllocGuard pins what synthesising a one-file folder
// allocates: the Folder, its file slice, the path, the line headers, the
// one string every line slices, and the per-call draw scratch. Nothing
// is allocated per line.
func TestGenFolderAllocGuard(t *testing.T) {
	spec := DefaultFolderSpec(1)
	spec.NumFiles = 1
	const budget = 10
	if got := testing.AllocsPerRun(50, func() { GenFolder(spec) }); got > budget {
		t.Fatalf("GenFolder with 1 file allocates %v objects/call, want <= %d", got, budget)
	}
}
