package tradefl_test

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// censusDocs are the documents a reader follows to build and run the
// program; their command names and paths must match the tree.
var censusDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

var (
	// commandName matches a command as the docs name it (tradefl-org).
	commandName = regexp.MustCompile(`\btradefl-[a-z]+\b`)
	// treePath matches a path under cmd/ or examples/, in prose, in a
	// backticked span or in a code block (./cmd/… as `go run` takes it).
	treePath = regexp.MustCompile(`(?:^|[\s(` + "`" + `])(?:\./)?((?:cmd|examples)/[A-Za-z0-9_./-]*)`)
)

// TestDocsCensus checks that every tradefl-<name> command the docs name is
// a directory under cmd/, and that every cmd/… or examples/… path they
// give exists, so deleting a command or an example means editing the
// docs that send a reader to it.
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
}

func isDir(path string) bool {
	fi, err := os.Stat(path)
	return err == nil && fi.IsDir()
}
