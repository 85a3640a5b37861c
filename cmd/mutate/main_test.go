package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
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

// TestJudge: a mutant that does not build is an error, whatever its check
// says, since every check fails on it; one that builds is killed when its
// check fails, timed out when the check ran out of time, and survives when
// the check passes.
func TestJudge(t *testing.T) {
	broken, failed := errors.New("build failed"), errors.New("exit status 1")
	for _, c := range []struct {
		built, checked error
		want           string
	}{
		{broken, nil, "error"},
		{broken, failed, "error"},
		{nil, failed, "killed"},
		{nil, fmt.Errorf("check: %w", context.DeadlineExceeded), "timed out"},
		{nil, nil, "survived"},
	} {
		if got := judge(c.built, c.checked); got != c.want {
			t.Errorf("judge(%v, %v) = %q, want %q", c.built, c.checked, got, c.want)
		}
	}
}

// TestInterruptCleansUp: stopped by SIGINT while a kill check runs — here
// the unmutated run of a check that sleeps in a child of its shell — the
// command kills the check's process group, removes its copy of the tree and
// exits non-zero, leaving no directory and no process behind.
func TestInterruptCleansUp(t *testing.T) {
	repo, tmp, pidFile := t.TempDir(), t.TempDir(), filepath.Join(t.TempDir(), "pid")
	list := fmt.Sprintf("mutant m E1\nreason r\ncheck sleep 60 & echo $! > %s; wait\nedit f.txt \"a\" \"b\"\n", pidFile)
	for name, text := range map[string]string{"mutants.txt": list, "f.txt": "a"} {
		if err := os.WriteFile(filepath.Join(repo, name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if out, err := exec.Command("sh", "-c", `cd "$0" && git init -q && git add .`, repo).CombinedOutput(); err != nil {
		t.Fatalf("git: %v: %s", err, out)
	}
	wd, err := os.Getwd()
	if err == nil {
		err = os.Chdir(repo)
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	t.Setenv("TMPDIR", tmp)
	code := make(chan int)
	go func() { code <- run(nil) }()
	pid := 0
	for deadline := time.Now().Add(30 * time.Second); pid == 0; time.Sleep(10 * time.Millisecond) {
		select {
		case c := <-code:
			t.Fatalf("the run ended with %d before its check started", c)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("the check never started")
		}
		data, _ := os.ReadFile(pidFile)
		pid, _ = strconv.Atoi(strings.TrimSpace(string(data)))
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case c := <-code:
		if c == 0 {
			t.Error("an interrupted run exited 0")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("the run did not stop on SIGINT")
	}
	if left, err := os.ReadDir(tmp); err != nil || len(left) != 0 {
		t.Errorf("left behind in TMPDIR: %v (%v)", left, err)
	}
	// A killed child nobody has reaped yet is a zombie: gone all the same.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
		if fields := strings.Fields(string(stat)); err != nil || len(fields) > 2 && fields[2] == "Z" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the check's child %d still runs: %s", pid, stat)
		}
	}
}
