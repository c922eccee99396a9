package junicon_test

import (
	goast "go/ast"
	goparser "go/parser"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"junicon"
	"junicon/internal/analyze"
	"junicon/internal/parser"
	"junicon/internal/remote"
)

// TestREADMEFlagsExist: every -flag the README shows on a command line of
// junicon, junicond, junistorm or fig6 is one that command defines. The
// defined set is read from the command itself — built, run with -h, whose
// usage text is flag.PrintDefaults, i.e. flag.VisitAll — so a flag
// removed from a command and left in the README fails here.
func TestREADMEFlagsExist(t *testing.T) {
	readme := readFile(t, "README.md")
	// A command word, then the blank-separated words after it up to a
	// backtick or a # comment; the words that start -letter are its flags.
	invocation := regexp.MustCompile("\\b(junicond|junistorm|junicon|fig6)\\b((?:[ \\t]+[^\\s`#]+)+)")
	named := map[string]map[string]bool{}
	for _, m := range invocation.FindAllStringSubmatch(readme, -1) {
		for _, word := range strings.Fields(m[2]) {
			if len(word) < 2 || word[0] != '-' || !isLetter(word[1]) {
				continue
			}
			name, _, _ := strings.Cut(word[1:], "=")
			if named[m[1]] == nil {
				named[m[1]] = map[string]bool{}
			}
			named[m[1]][strings.TrimRight(name, ".,;:)")] = true
		}
	}
	for _, cmd := range []string{"junicon", "junicond", "junistorm", "fig6"} {
		if len(named[cmd]) == 0 {
			t.Errorf("README names no flag of %s: the extraction is broken", cmd)
			continue
		}
		defined := definedFlags(t, cmd)
		var missing []string
		for name := range named[cmd] {
			if !defined[name] {
				missing = append(missing, "-"+name)
			}
		}
		sort.Strings(missing)
		if len(missing) > 0 {
			t.Errorf("README names flags %s does not define: %s", cmd, strings.Join(missing, " "))
		}
	}
}

func isLetter(c byte) bool { return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' }

// definedFlags builds cmd/<name> and reads its flag set off its -h text.
func definedFlags(t *testing.T, name string) map[string]bool {
	t.Helper()
	bin := filepath.Join(t.TempDir(), name)
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/"+name).CombinedOutput(); err != nil {
		t.Fatalf("build %s: %v\n%s", name, err, out)
	}
	usage, _ := exec.Command(bin, "-h").CombinedOutput() // -h exits non-zero by design
	defined := map[string]bool{}
	for _, line := range strings.Split(string(usage), "\n") {
		if f := strings.Fields(line); strings.HasPrefix(line, "  -") && len(f) > 0 {
			defined[strings.TrimPrefix(f[0], "-")] = true
		}
	}
	if len(defined) == 0 {
		t.Fatalf("%s -h lists no flags:\n%s", name, usage)
	}
	return defined
}

// TestREADMEListingIsCurrent: the -dis listing the README shows under
// "Compiled execution" is what that command prints now, line for line
// (trailing blanks aside), so a change to the compiler's output fails here
// until the excerpt follows. The listing is made as junicon -dis -e makes
// it: DisassembleExpr on a fresh NewInterp.
func TestREADMEListingIsCurrent(t *testing.T) {
	const expr = "every x := 1 to 3 do write(x)"
	cmd := "$ junicon -dis -e '" + expr + "'\n"
	_, excerpt, found := strings.Cut(readFile(t, "README.md"), cmd)
	if !found {
		t.Fatalf("README shows no %q", strings.TrimSpace(cmd))
	}
	excerpt, _, _ = strings.Cut(excerpt, "```")
	var out strings.Builder
	if err := junicon.NewInterp(io.Discard).DisassembleExpr(expr, &out); err != nil {
		t.Fatalf("DisassembleExpr: %v", err)
	}
	trim := func(s string) string {
		lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
		for i, l := range lines {
			lines[i] = strings.TrimRight(l, " ")
		}
		return strings.Join(lines, "\n")
	}
	if got, want := trim(out.String()), trim(excerpt); got != want {
		t.Errorf("README listing is stale; junicon prints:\n%s\nREADME shows:\n%s", got, want)
	}
}

// TestREADMEFieldTablesMatch: the README's remote.Config and remote.Dialer
// tables and the structs say the same thing. Every exported field has a
// row, and every back-ticked name in a table's first column is a field, so
// an option added, renamed or removed fails here until the table follows.
func TestREADMEFieldTablesMatch(t *testing.T) {
	readme := readFile(t, "README.md")
	for lead, typ := range map[string]reflect.Type{
		"`remote.Config` is the whole per-pipe surface:": reflect.TypeOf(remote.Config{}),
		"is `remote.Dialer`'s;":                          reflect.TypeOf((*remote.Dialer)(nil)).Elem(),
	} {
		_, after, found := strings.Cut(readme, lead)
		if !found {
			t.Errorf("README has no table led by %q", lead)
			continue
		}
		// The table is the first run of | lines after the lead; its first
		// column names the fields, back-ticked.
		named := map[string]bool{}
		inTable := false
		for _, line := range strings.Split(after, "\n") {
			if !strings.HasPrefix(line, "|") {
				if inTable {
					break
				}
				continue
			}
			inTable = true
			for _, m := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatch(strings.Split(line, "|")[1], -1) {
				named[m[1]] = true
			}
		}
		for i := range typ.NumField() {
			if f := typ.Field(i); f.IsExported() && !named[f.Name] {
				t.Errorf("%s.%s has no row in the README table", typ, f.Name)
			} else {
				delete(named, f.Name)
			}
		}
		for name := range named {
			t.Errorf("the README's %s table names %s, which is not a field", typ, name)
		}
	}
}

// TestREADMEDiagnosticTable: the README's JV table lists exactly the
// analyzer's Code* constants, each with the severity the analyzer's
// fixtures emit it at, so a code added, removed or re-graded fails here
// until the table follows.
func TestREADMEDiagnosticTable(t *testing.T) {
	readme := readFile(t, "README.md")
	table := map[string]string{}
	for _, m := range regexp.MustCompile(`(?m)^\| (JV\d{3}) \| (\w+) \|`).FindAllStringSubmatch(readme, -1) {
		table[m[1]] = m[2]
	}
	// Every non-test file of the package, so a code declared outside
	// analyze.go is not missed.
	sources, _ := filepath.Glob(filepath.Join("internal", "analyze", "*.go"))
	codes := map[string]bool{}
	for _, path := range sources {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		src, err := goparser.ParseFile(token.NewFileSet(), path, readFile(t, path), 0)
		if err != nil {
			t.Fatal(err)
		}
		goast.Inspect(src, func(n goast.Node) bool {
			if vs, ok := n.(*goast.ValueSpec); ok && len(vs.Names) == len(vs.Values) {
				for i, name := range vs.Names {
					if lit, ok := vs.Values[i].(*goast.BasicLit); ok && strings.HasPrefix(name.Name, "Code") {
						code, _ := strconv.Unquote(lit.Value)
						codes[code] = true
					}
				}
			}
			return true
		})
	}
	if len(codes) == 0 {
		t.Fatal("found no Code* constants in internal/analyze")
	}
	emitted := map[string]map[string]bool{}
	fixtures, _ := filepath.Glob(filepath.Join("internal", "analyze", "testdata", "*.jn"))
	for _, path := range fixtures {
		prog, err := parser.ParseProgram(readFile(t, path))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, d := range analyze.Program(prog, analyze.Options{}) {
			if emitted[d.Code] == nil {
				emitted[d.Code] = map[string]bool{}
			}
			emitted[d.Code][d.Severity.String()] = true
		}
	}
	for code := range codes {
		sev, listed := table[code]
		switch {
		case !listed:
			t.Errorf("%s has no row in the README's JV table", code)
		case len(emitted[code]) != 1 || !emitted[code][sev]:
			t.Errorf("the README grades %s %s; the fixtures emit it as %v", code, sev, emitted[code])
		}
	}
	for code := range table {
		if !codes[code] {
			t.Errorf("the README's JV table lists %s, which the analyzer does not define", code)
		}
	}
	for code := range emitted {
		if !codes[code] {
			t.Errorf("the fixtures emit %s, which is no Code* constant found in internal/analyze", code)
		}
	}
}

// readFile is the file's contents; a read error fails the test.
func readFile(t testing.TB, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestEveryMetricIsRead: every metric the runtime registers is read by
// something that would notice it change — a test, by name or, from the
// registering package, through the Go variable holding it; the ledger
// (benchmark/*.go); CI (.github/workflows/ci.yml); or the report of the
// command that registers it (a Load or Snapshot of its variable there). A
// counter nobody reads is code, not observability: this fails until it is
// read or deleted.
func TestEveryMetricIsRead(t *testing.T) {
	register := regexp.MustCompile(`(?:(\w+)\s*=\s*)?telemetry\.New(?:Counter|Gauge|Histogram)\("([^"]+)"`)
	type site struct{ dir, v string }
	sites := map[string][]site{}
	var tests, ledger []string
	filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case !strings.HasSuffix(path, ".go"):
		case strings.HasPrefix(path, "benchmark"+string(filepath.Separator)):
			ledger = append(ledger, readFile(t, path))
		case strings.HasSuffix(path, "_test.go"):
			tests = append(tests, path)
		default:
			for _, m := range register.FindAllStringSubmatch(readFile(t, path), -1) {
				sites[m[2]] = append(sites[m[2]], site{filepath.Dir(path), m[1]})
			}
		}
		return nil
	})
	if len(sites) == 0 {
		t.Fatal("found no registered metrics")
	}
	ci := readFile(t, filepath.Join(".github", "workflows", "ci.yml"))
	read := func(name string, at site) bool {
		quoted := strconv.Quote(name)
		if strings.Contains(ci, name) || slices.ContainsFunc(ledger, func(src string) bool { return strings.Contains(src, quoted) }) {
			return true
		}
		byVar := regexp.MustCompile(`\b` + at.v + `\b`)
		for _, path := range tests {
			src := readFile(t, path)
			if strings.Contains(src, quoted) || at.v != "" && filepath.Dir(path) == at.dir && byVar.MatchString(src) {
				return true
			}
		}
		if at.v == "" || !strings.HasPrefix(at.dir, "cmd") {
			return false
		}
		report := regexp.MustCompile(`\b` + at.v + `\.(Load|Snapshot)\(`)
		sources, _ := filepath.Glob(filepath.Join(at.dir, "*.go"))
		return slices.ContainsFunc(sources, func(path string) bool { return report.MatchString(readFile(t, path)) })
	}
	for name, at := range sites {
		if !slices.ContainsFunc(at, func(s site) bool { return read(name, s) }) {
			t.Errorf("metric %s (registered in %s) is read by no test, ledger, CI step or command report", name, at[0].dir)
		}
	}
}

// TestDesignInventoryIsComplete: DESIGN §3's module map names every
// directory that holds non-test Go outside benchmark/ and examples/ (the
// root package is row 18's), and every path the map names exists. A
// directory whose files are all generated (they start "// Code
// generated") is exempt.
func TestDesignInventoryIsComplete(t *testing.T) {
	design := readFile(t, "DESIGN.md")
	start := strings.Index(design, "## 3.")
	end := strings.Index(design, "## 4.")
	if start < 0 || end < start {
		t.Fatal("DESIGN.md has no §3 before §4")
	}
	named := map[string]bool{".": true}
	code := regexp.MustCompile("`([^`]+)`")
	for _, line := range strings.Split(design[start:end], "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 4 {
			continue
		}
		for _, m := range code.FindAllStringSubmatch(cells[2], -1) {
			p := m[1]
			if !strings.Contains(p, "/") {
				continue // a name, not a path: `junicon`, `initial`
			}
			if hits, _ := filepath.Glob(p); len(hits) == 0 {
				t.Errorf("DESIGN §3 names %s, which does not exist", p)
			}
			named[p] = true
		}
	}
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path == "benchmark" || path == "examples" || name == "testdata" ||
			path != "." && strings.HasPrefix(name, ".") {
			return filepath.SkipDir
		}
		files, _ := filepath.Glob(filepath.Join(path, "*.go"))
		handWritten := false
		for _, f := range files {
			if !strings.HasSuffix(f, "_test.go") && !strings.HasPrefix(readFile(t, f), "// Code generated") {
				handWritten = true
			}
		}
		if handWritten && !named[filepath.ToSlash(path)] {
			t.Errorf("DESIGN §3 has no row for %s", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
