package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCommittedList holds mutants.txt to the shape cmd/mutate needs: it
// parses, every entry has a reason, an E-row and a kill check, and every
// edit's old text occurs exactly once in its file and differs from the new
// text.  A refactor that rewrites a mutated line fails here until the
// entry is updated.
func TestCommittedList(t *testing.T) {
	text, err := os.ReadFile("../../mutants.txt")
	if err != nil {
		t.Fatal(err)
	}
	list, err := parse(string(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(list) == 0 || list[0].name != "nodedup" {
		t.Fatalf("the list must open with nodedup, the fuzzer's end-to-end entry")
	}
	files := map[string]string{}
	for _, m := range list {
		if !strings.HasPrefix(m.erow, "E") {
			t.Errorf("%s: E-row %q", m.name, m.erow)
		}
		for _, e := range m.edits {
			if _, ok := files[e.file]; !ok {
				data, err := os.ReadFile(filepath.Join("../..", e.file))
				if err != nil {
					t.Errorf("%s: %v", m.name, err)
				}
				files[e.file] = string(data)
			}
			if n := strings.Count(files[e.file], e.old); n != 1 || e.old == e.new {
				t.Errorf("%s: %s: the old text occurs %d times (want 1), or equals the new: %q", m.name, e.file, n, e.old)
			}
		}
	}
}

// TestParseRejects: a malformed list is an error naming its line, never a
// shorter list.
func TestParseRejects(t *testing.T) {
	for text, want := range map[string]string{
		"reason r":                                 "line 1: reason before the first mutant",
		"mutant a\n":                               "line 1: want mutant <name not used before> <E-row>",
		"mutant a E1\nmutant a E2":                 "line 2: want mutant <name not used before> <E-row>",
		"mutant a E1\nreason r\ncheck true":        "mutant a needs a reason, a check and an edit",
		"mutant a E1\nedit f.go old \"new\"":       "line 2: want edit <file> <Go-quoted old text> <Go-quoted new text>",
		"mutant a E1\nedit f.go \"old\" \"new\" x": "line 2: want edit <file> <Go-quoted old text> <Go-quoted new text>",
		"mutant a E1\nwhy r":                       "line 2: unknown keyword \"why\"",
	} {
		if _, err := parse(text); err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("parse(%q) = %v, want %q", text, err, want)
		}
	}
	list, err := parse("# c\n\nmutant a E1\nreason r\ncheck go test .\nedit f.go \"\\tx := 1\" `x := 2`\n")
	if err != nil || len(list) != 1 || list[0].edits[0] != (edit{"f.go", "\tx := 1", "x := 2"}) || list[0].check != "go test ." {
		t.Errorf("parse of a good entry: %+v, %v", list, err)
	}
}
