// Package repohygiene reproduces the PARC group's repository protocols
// (§IV-A): students committing to the group's subversion had to follow
// "good hygiene in the directory structure" — separating source from
// tests and benchmarks, excluding build artifacts from version control,
// and keeping everything working on Linux ("taking minor differences such
// as file separators and new lines into consideration"). This package is
// the checker the instructors could have pointed at a group's tree: it
// audits a project layout (in memory or on disk) and reports violations
// as findings in the shared course-report vocabulary (internal/report),
// so parcaudit and parcvet findings compose into one report.
package repohygiene

import (
	"fmt"
	"io/fs"
	"path"
	"regexp"
	"sort"
	"strings"

	"parc751/internal/report"
)

// driveLetterRe matches a Windows drive-letter path: a single letter,
// colon, backslash, where the letter is not preceded by another
// identifier character or a %-verb. The shape constraint keeps ordinary
// colon-then-escape sequences in string literals ("findings" + colon +
// newline escape) and format strings ("%d" + colon + escape) from being
// mistaken for paths.
var driveLetterRe = regexp.MustCompile(`(^|[^A-Za-z0-9_%])[A-Za-z]:\\`)

// File is one file in the audited tree: a slash-separated path plus
// (optionally) its content for the portability checks.
type File struct {
	Path    string
	Content []byte
}

// Config tunes the audit.
type Config struct {
	// ArtifactSuffixes are build products that must not be committed.
	ArtifactSuffixes []string
	// ArtifactDirs are directories (path segments) that must not be
	// committed at all.
	ArtifactDirs []string
	// RequireLayout demands src/test/bench separation at the top level.
	RequireLayout bool
	// SourceDirs are the accepted top-level code directories when
	// RequireLayout is set.
	SourceDirs []string
}

// PARCDefaults returns the protocol the paper describes: Java-era build
// artifacts excluded, src/test/bench separation, Linux portability.
func PARCDefaults() Config {
	return Config{
		ArtifactSuffixes: []string{".class", ".jar", ".o", ".exe", ".dll", ".log", ".tmp"},
		ArtifactDirs:     []string{"bin", "build", "out", "target", ".settings"},
		RequireLayout:    true,
		SourceDirs:       []string{"src", "test", "bench", "doc", "scripts"},
	}
}

// Audit checks the tree against the config and returns its violations,
// sorted by (severity desc, path, rule).
func Audit(cfg Config, files []File) []report.Finding {
	var out []report.Finding
	add := func(rule, p string, sev report.Severity, detail string) {
		out = append(out, report.Finding{Tool: "parcaudit", Rule: rule, Pos: p, Severity: sev, Detail: detail})
	}
	seenLower := map[string]string{}
	topLevel := map[string]bool{}

	for _, f := range files {
		p := f.Path
		if strings.Contains(p, "\\") {
			add("path-separator", p, report.Error,
				"backslash in committed path breaks Linux checkouts")
		}
		clean := path.Clean(strings.ReplaceAll(p, "\\", "/"))
		segs := strings.Split(clean, "/")
		topLevel[segs[0]] = true

		// Artifact suffixes.
		for _, suf := range cfg.ArtifactSuffixes {
			if strings.HasSuffix(clean, suf) {
				add("committed-artifact", p, report.Error,
					fmt.Sprintf("%s files must be excluded from version control", suf))
			}
		}
		// Artifact directories.
		for _, seg := range segs[:maxInt(len(segs)-1, 0)] {
			for _, bad := range cfg.ArtifactDirs {
				if seg == bad {
					add("committed-build-dir", p, report.Error,
						fmt.Sprintf("directory %q is a build output", bad))
				}
			}
		}
		// Case-insensitive collisions (break macOS/Windows checkouts of
		// the shared repository).
		lower := strings.ToLower(clean)
		if prev, ok := seenLower[lower]; ok && prev != clean {
			add("case-collision", p, report.Error,
				fmt.Sprintf("collides with %q on case-insensitive filesystems", prev))
		} else {
			seenLower[lower] = clean
		}

		// Content checks (Linux portability, §IV-A).
		if len(f.Content) > 0 {
			if isScript(clean) {
				if strings.Contains(string(f.Content), "\r\n") {
					add("crlf-line-endings", p, report.Error,
						"CRLF newlines break shell scripts on the PARC Linux systems")
				}
				if !strings.HasPrefix(string(f.Content), "#!") {
					add("missing-shebang", p, report.Warning,
						"scripts need an interpreter line to run on Linux")
				}
			} else if isSource(clean) && strings.Contains(string(f.Content), "\r\n") {
				add("crlf-line-endings", p, report.Warning,
					"mixed newline conventions churn the subversion history")
			}
			if isSource(clean) && driveLetterRe.Match(f.Content) {
				add("hardcoded-windows-path", p, report.Error,
					"drive-letter paths cannot work on the PARC Linux systems")
			}
		}
	}

	// Layout separation.
	if cfg.RequireLayout {
		allowed := map[string]bool{}
		for _, d := range cfg.SourceDirs {
			allowed[d] = true
		}
		hasSrc := false
		for d := range topLevel {
			if d == "src" {
				hasSrc = true
			}
			if !allowed[d] && !strings.HasPrefix(d, ".") && strings.Contains(d, ".") == false {
				add("layout-separation", d, report.Warning,
					fmt.Sprintf("top-level directory %q is outside the agreed layout %v", d, cfg.SourceDirs))
			}
		}
		if !hasSrc && len(files) > 0 {
			add("layout-separation", ".", report.Error,
				"no src/ directory: source must be separated from tests and benchmarks")
		}
	}

	sort.Slice(out, func(i, j int) bool {
		if out[i].Severity != out[j].Severity {
			return out[i].Severity > out[j].Severity
		}
		if out[i].Pos != out[j].Pos {
			return out[i].Pos < out[j].Pos
		}
		return out[i].Rule < out[j].Rule
	})
	return out
}

// AuditFS loads a tree from an fs.FS (reading contents of files up to
// maxBytes each) and audits it — the on-disk entry point used by the CLI.
func AuditFS(cfg Config, fsys fs.FS, maxBytes int64) ([]report.Finding, error) {
	var files []File
	err := fs.WalkDir(fsys, ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		f := File{Path: p}
		if info, ierr := d.Info(); ierr == nil && info.Size() <= maxBytes {
			if data, rerr := fs.ReadFile(fsys, p); rerr == nil {
				f.Content = data
			}
		}
		files = append(files, f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return Audit(cfg, files), nil
}

func isScript(p string) bool {
	return strings.HasSuffix(p, ".sh") || strings.HasPrefix(path.Base(p), "run") &&
		path.Ext(p) == ""
}

func isSource(p string) bool {
	switch path.Ext(p) {
	case ".go", ".java", ".c", ".h", ".cpp", ".py", ".sh":
		return true
	}
	return false
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
