package tradefl_test

import (
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// censusDocs are the documents a reader follows to build and run the
// program; their command names and paths must match the tree.
var censusDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

// referenceDocs are the documents whose series names, Go file paths and
// command flags must also match the tree.
var referenceDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

var (
	// commandName matches a command as the docs name it (tradefl-org).
	commandName = regexp.MustCompile(`\btradefl-[a-z]+\b`)
	// treePath matches a path under cmd/, examples/ or scripts/, in prose,
	// in a backticked span or in a code block (./cmd/… as `go run` takes
	// it).
	treePath = regexp.MustCompile(`(?:^|[\s(` + "`" + `])(?:\./)?((?:cmd|examples|scripts)/[A-Za-z0-9_./-]*)`)
	// codeSpan matches an inline backticked span.
	codeSpan = regexp.MustCompile("`([^`\n]+)`")
	// seriesName matches a tradefl_* name, a …_* glob or a name with one
	// {a,b} alternation (not a {label="…"} selector).
	seriesName = regexp.MustCompile(`\btradefl_[A-Za-z0-9_]*(?:\{[a-z0-9_,]+\}[a-z0-9_]*)?\*?`)
	// seriesAlternation is the {a,b} part of a series name.
	seriesAlternation = regexp.MustCompile(`\{([a-z0-9_,]+)\}`)
	// goFile matches a slash-separated path to a .go file (not one under
	// an environment variable such as $GOROOT).
	goFile = regexp.MustCompile(`(?:^|[\s(` + "`" + `])((?:[A-Za-z0-9_.-]+/)+[A-Za-z0-9_-]+\.go)\b`)
	// flagDef matches a flag definition on a flag set: fs.String("name", …)
	// or fs.BoolVar(&v, "name", …).
	flagDef = regexp.MustCompile(`\bfs\.[A-Z][A-Za-z0-9]*\((?:&?[A-Za-z0-9_.]+, )?"([a-z][a-z0-9-]*)"`)
	// commandToken is a command as a shell line runs it, path stripped.
	commandToken = regexp.MustCompile(`^tradefl-[a-z]+$`)
	// flagUse matches a flag on a command line.
	flagUse = regexp.MustCompile(`^-([a-z][a-z0-9-]*)`)
	// flagList opens a paragraph listing one command's flags.
	flagList = regexp.MustCompile("^Flag reference \\(`(tradefl-[a-z]+)`\\)")
	// lineRef matches a Go file cited at a line or a range of lines:
	// file.go:NNN, path/file.go:NNN or file.go:NNN–MMM.
	lineRef = regexp.MustCompile(`\b((?:[A-Za-z0-9_.-]+/)*[A-Za-z0-9_-]+\.go):([0-9]+)(?:[–-]([0-9]+))?`)
	// roadmapRef matches a pointer into ROADMAP.md: ROADMAP item N or
	// ROADMAP item N(x), possibly broken across lines.
	roadmapRef = regexp.MustCompile(`\bROADMAP\s+item\s+([0-9]+)(?:\(([a-z])\))?`)
	// roadmapItem opens an Open items entry: - **N. Title…
	roadmapItem = regexp.MustCompile(`(?m)^- \*\*([0-9]+)\. `)
	// roadmapStep names a lettered step of an item: **(d)** or a plain
	// list entry - (a).
	roadmapStep = regexp.MustCompile(`(?m)\*\*\(([a-z])\)\*\*|^\s*- \(([a-z])\) `)
)

// TestDocsCensus checks that every tradefl-<name> command the docs name is
// a directory under cmd/, and that every cmd/…, examples/… or scripts/…
// path they give exists, so deleting a command, an example or a script
// means editing the docs that send a reader to it. In the referenceDocs
// it also checks that every backticked tradefl_* series is
// one TestMetricCensus pins (a …_* glob must match one), that every
// path/file.go exists (from the root or from internal/), and that every
// -flag given to a command is one that command or internal/cli defines.
// Every ROADMAP item N or ROADMAP item N(x) in the referenceDocs and in
// non-test Go comments must name an item of ROADMAP.md's Open items, or a
// lettered step of one, and every file.go:NNN they cite must lie within
// that file.
func TestDocsCensus(t *testing.T) {
	for _, doc := range censusDocs {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(raw)
		for _, name := range commandName.FindAllString(text, -1) {
			if !isDir("cmd/" + name) {
				t.Errorf("%s names %s, but there is no cmd/%s", doc, name, name)
			}
		}
		for _, m := range treePath.FindAllStringSubmatch(text, -1) {
			path := strings.TrimRight(m[1], ".")
			if _, err := os.Stat(path); err != nil {
				t.Errorf("%s gives the path %s, which does not exist", doc, path)
			}
		}
	}
	flags := commandFlags(t)
	items := roadmapItems(t)
	files := newGoLines(t)
	for _, doc := range referenceDocs {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(raw)
		for _, span := range codeSpan.FindAllStringSubmatch(text, -1) {
			for _, name := range seriesName.FindAllString(span[1], -1) {
				if !isSeries(name) {
					t.Errorf("%s names the series %s, which TestMetricCensus does not pin", doc, name)
				}
			}
		}
		for _, m := range goFile.FindAllStringSubmatch(text, -1) {
			if file := m[1]; !exists(file) && !exists(filepath.Join("internal", file)) {
				t.Errorf("%s gives the file %s, which does not exist", doc, file)
			}
		}
		for _, use := range flagUses(text) {
			if !flags[use.cmd][use.flag] {
				t.Errorf("%s gives %s the flag -%s, which it does not define", doc, use.cmd, use.flag)
			}
		}
		checkRoadmapRefs(t, items, doc, text)
		files.check(t, doc, text)
	}
	for _, p := range goFiles(t) {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), p, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, cg := range f.Comments {
			checkRoadmapRefs(t, items, p, cg.Text())
			files.check(t, p, cg.Text())
		}
	}
	checkChangesCap(t)
}

// goLines holds every Go file's line count, by path and by base name.
type goLines struct {
	lines  map[string]int
	byBase map[string][]string
}

func newGoLines(t *testing.T) goLines {
	t.Helper()
	g := goLines{lines: map[string]int{}, byBase: map[string][]string{}}
	for _, p := range goFiles(t) {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		n := strings.Count(string(raw), "\n")
		if len(raw) > 0 && raw[len(raw)-1] != '\n' {
			n++
		}
		p = filepath.ToSlash(p)
		g.lines[p] = n
		g.byBase[path.Base(p)] = append(g.byBase[path.Base(p)], p)
	}
	return g
}

// check requires every file.go:NNN in text to lie within its file. A path
// is looked up from the root or from internal/; a bare file name must name
// a file in the tree, and when several share it, the line must lie within
// one of them.
func (g goLines) check(t *testing.T, where, text string) {
	t.Helper()
	for _, m := range lineRef.FindAllStringSubmatch(text, -1) {
		cited := m[1]
		candidates := g.byBase[cited]
		if strings.Contains(cited, "/") {
			candidates = nil
			for _, p := range []string{cited, "internal/" + cited} {
				if _, ok := g.lines[p]; ok {
					candidates = append(candidates, p)
				}
			}
		}
		last, _ := strconv.Atoi(m[2])
		if m[3] != "" {
			end, _ := strconv.Atoi(m[3])
			last = max(last, end)
		}
		longest := 0
		for _, p := range candidates {
			longest = max(longest, g.lines[p])
		}
		switch {
		case len(candidates) == 0:
			t.Errorf("%s cites %s, but no such Go file exists", where, m[0])
		case last < 1 || last > longest:
			t.Errorf("%s cites %s, but %s has %d lines", where, m[0], strings.Join(candidates, ", "), longest)
		}
	}
}

// changesCap is the most bytes a CHANGES.md entry may hold from PR
// changesCapFrom on (ROADMAP item 6): A/B tables and measurement logs
// belong in the PR description, not in the log the next change reads.
const (
	changesCap     = 1536
	changesCapFrom = 52
)

// changesEntry opens a CHANGES.md entry: a "- PR N" line; the entry runs
// on over indented continuation lines.
var changesEntry = regexp.MustCompile(`^- PR ([0-9]+)\b`)

// checkChangesCap fails every CHANGES.md entry for PR changesCapFrom or
// later that is over changesCap bytes.
func checkChangesCap(t *testing.T) {
	t.Helper()
	raw, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	pr, size := 0, 0
	flush := func() {
		if pr >= changesCapFrom && size > changesCap {
			t.Errorf("CHANGES.md: the entry for PR %d is %d bytes, over the %d-byte cap", pr, size, changesCap)
		}
		pr, size = 0, 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if pr > 0 && (strings.HasPrefix(line, " ") || strings.HasPrefix(line, "\t")) {
			size += len(line) + 1
			continue
		}
		flush()
		if m := changesEntry.FindStringSubmatch(line); m != nil {
			pr, _ = strconv.Atoi(m[1])
			size = len(line)
		}
	}
	flush()
}

// checkRoadmapRefs fails every ROADMAP item reference in text that names
// no Open items entry of ROADMAP.md, or a step that entry lacks.
func checkRoadmapRefs(t *testing.T, items map[string]map[string]bool, where, text string) {
	t.Helper()
	for _, m := range roadmapRef.FindAllStringSubmatch(text, -1) {
		steps, ok := items[m[1]]
		if !ok {
			t.Errorf("%s cites ROADMAP item %s, which is not an open item", where, m[1])
		} else if m[2] != "" && !steps[m[2]] {
			t.Errorf("%s cites ROADMAP item %s(%s), which item %s does not have", where, m[1], m[2], m[1])
		}
	}
}

// roadmapItems returns the Open items of ROADMAP.md by number, each with
// the set of its lettered steps.
func roadmapItems(t *testing.T) map[string]map[string]bool {
	t.Helper()
	raw, err := os.ReadFile("ROADMAP.md")
	if err != nil {
		t.Fatal(err)
	}
	_, open, ok := strings.Cut(string(raw), "\n## Open items\n")
	if !ok {
		t.Fatal("ROADMAP.md has no Open items section")
	}
	for _, next := range []string{"\n## ", "\n### Parked"} {
		if end := strings.Index(open, next); end >= 0 {
			open = open[:end]
		}
	}
	items := map[string]map[string]bool{}
	heads := roadmapItem.FindAllStringSubmatchIndex(open, -1)
	for i, h := range heads {
		end := len(open)
		if i+1 < len(heads) {
			end = heads[i+1][0]
		}
		steps := map[string]bool{}
		for _, m := range roadmapStep.FindAllStringSubmatch(open[h[1]:end], -1) {
			steps[m[1]+m[2]] = true
		}
		items[open[h[2]:h[3]]] = steps
	}
	return items
}

// isSeries reports whether a tradefl_* name from the docs is a pinned
// series, or a glob matching one. A name with an upper-case letter is a
// JSON-RPC method and tradefl_phase the pprof label; neither is a series.
func isSeries(name string) bool {
	if name == "tradefl_phase" || strings.ToLower(name) != name {
		return true
	}
	if m := seriesAlternation.FindStringSubmatchIndex(name); m != nil {
		for _, alt := range strings.Split(name[m[2]:m[3]], ",") {
			if !isSeries(name[:m[0]] + alt + name[m[1]:]) {
				return false
			}
		}
		return true
	}
	if prefix, glob := strings.CutSuffix(name, "*"); glob {
		for series := range metricReaders {
			if strings.HasPrefix(series, prefix) {
				return true
			}
		}
		return false
	}
	_, ok := metricReaders[name]
	return ok
}

// commandFlags returns, per command, the flags it defines plus the shared
// ones internal/cli adds and -h.
func commandFlags(t *testing.T) map[string]map[string]bool {
	t.Helper()
	shared := definedFlags(t, "internal/cli/*.go")
	shared["h"] = true
	dirs, err := filepath.Glob("cmd/tradefl-*")
	if err != nil || len(dirs) == 0 {
		t.Fatalf("no commands under cmd/ (%v)", err)
	}
	all := map[string]map[string]bool{}
	for _, dir := range dirs {
		own := definedFlags(t, filepath.Join(dir, "*.go"))
		for name := range shared {
			own[name] = true
		}
		all[filepath.Base(dir)] = own
	}
	return all
}

// definedFlags returns the flag names the non-test files matching pattern
// define.
func definedFlags(t *testing.T, pattern string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(pattern)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range flagDef.FindAllStringSubmatch(string(raw), -1) {
			names[m[1]] = true
		}
	}
	return names
}

type flagUsage struct{ cmd, flag string }

// flagUses returns the flags the docs give a command: on a command line
// (a code-block line or a backticked span) every -flag after the command
// up to a comment or the next shell command, and in a "Flag reference
// (`tradefl-<name>`)" paragraph every backticked -flag.
func flagUses(text string) []flagUsage {
	var uses []flagUsage
	inBlock := false
	listing := ""
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "```") {
			inBlock = !inBlock
			continue
		}
		if inBlock {
			uses = append(uses, commandLineFlags(line)...)
			continue
		}
		if m := flagList.FindStringSubmatch(line); m != nil {
			listing = m[1]
		} else if strings.TrimSpace(line) == "" {
			listing = ""
		}
		for _, span := range codeSpan.FindAllStringSubmatch(line, -1) {
			if m := flagUse.FindStringSubmatch(span[1]); m != nil && listing != "" {
				uses = append(uses, flagUsage{listing, m[1]})
			}
			uses = append(uses, commandLineFlags(span[1])...)
		}
	}
	return uses
}

// commandLineFlags returns the flags a shell line gives tradefl commands:
// each ;, | or & separated command that runs one (directly, after
// VAR=value settings, or through go run ./cmd/…) up to a # comment.
func commandLineFlags(line string) []flagUsage {
	var uses []flagUsage
	line, _, _ = strings.Cut(line, " #")
	for _, segment := range strings.FieldsFunc(line, func(r rune) bool { return r == ';' || r == '|' || r == '&' }) {
		fields := strings.Fields(segment)
		for len(fields) > 0 && strings.Contains(fields[0], "=") {
			fields = fields[1:]
		}
		if len(fields) > 1 && fields[0] == "go" && fields[1] == "run" {
			fields = fields[2:]
			for len(fields) > 0 && strings.HasPrefix(fields[0], "-") {
				fields = fields[1:]
			}
		}
		if len(fields) == 0 || !commandToken.MatchString(path.Base(fields[0])) {
			continue
		}
		for _, field := range fields[1:] {
			if m := flagUse.FindStringSubmatch(field); m != nil {
				uses = append(uses, flagUsage{path.Base(fields[0]), m[1]})
			}
		}
	}
	return uses
}

func isDir(path string) bool {
	fi, err := os.Stat(path)
	return err == nil && fi.IsDir()
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
