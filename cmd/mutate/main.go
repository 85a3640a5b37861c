// Command mutate measures how strong the repository's tests are.  Each
// entry of the committed mutants.txt is a seeded bug: one or more exact
// text edits, the E-row of EXPERIMENTS.md that introduced it, and a kill
// check, a shell command line that passes on the repository and must fail
// with the bug in place.
//
// It copies the working tree's tracked files, mutants.txt among them, into
// a temporary directory (which honours TMPDIR) and never edits the
// repository.  Each distinct kill check runs once on the unmutated copy,
// before the first entry that names it: a check that fails there is an
// error, not a kill.  Then each entry's edits are applied, its check runs
// under a fixed timeout and the files are restored.  A check still running
// at the timeout is killed with its whole process group, so no test binary
// outlives it.  Each entry prints killed, survived or timed out with its
// wall time, and the command exits 1 on a survivor or an error.
//
//	go run ./cmd/mutate              # every entry (make mutate)
//	go run ./cmd/mutate nodedup      # the named entries only
//
// mutants.txt holds one keyword per line; blank lines and lines starting
// with '#' are skipped:
//
//	mutant <name> <E-row>
//	reason <one line>
//	check <shell command, run from the copy's root>
//	edit <file> <Go-quoted old text> <Go-quoted new text>
//
// with one or more edit lines per entry.  The old text must occur exactly
// once in its file.
package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"
)

// timeout bounds one kill check; the slowest committed check, a lock test
// that waits out its 60-second watchdog, takes about a minute.
const timeout = 10 * time.Minute

type edit struct{ file, old, new string }

type mutant struct {
	name, erow, reason, check string
	edits                     []edit
}

func main() { os.Exit(run(os.Args[1:])) }

func run(names []string) int {
	dir, err := os.MkdirTemp("", "mutate-")
	var text []byte
	if err == nil {
		defer os.RemoveAll(dir)
		// A tracked file deleted in the working tree is left out.
		err = exec.Command("sh", "-c", `git ls-files -z | tar --null --ignore-failed-read -T - -cf - 2>/dev/null | tar -xf - -C "$0"`, dir).Run()
	}
	if err == nil {
		text, err = os.ReadFile(filepath.Join(dir, "mutants.txt"))
	}
	var list []mutant
	if err == nil {
		list, err = parse(string(text))
	}
	if len(names) > 0 && err == nil {
		list = slices.DeleteFunc(list, func(m mutant) bool { return !slices.Contains(names, m.name) })
		if len(list) != len(slices.Compact(slices.Sorted(slices.Values(names)))) {
			err = fmt.Errorf("not every name of %q is an entry of mutants.txt", names)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mutate:", err)
		return 2
	}
	start, count, broken := time.Now(), map[string]int{}, map[string]bool{}
	for _, m := range list {
		if _, seen := broken[m.check]; !seen {
			out, err := check(dir, m.check)
			if broken[m.check] = err != nil; err != nil {
				fmt.Printf("error: the kill check fails on the unmutated tree (%v): %s\n%s\n", err, m.check, out[max(len(out)-2000, 0):])
			}
		}
		verdict, took, err := "error", time.Now(), apply(dir, m.edits, false)
		if err == nil && !broken[m.check] {
			_, cerr := check(dir, m.check)
			verdict = map[bool]string{true: "killed", false: "survived"}[cerr != nil]
			if errors.Is(cerr, context.DeadlineExceeded) {
				verdict = "timed out"
			}
		}
		if err = errors.Join(err, apply(dir, m.edits, true)); err != nil {
			verdict = "error"
			fmt.Printf("error: %s: %v\n", m.name, err)
		}
		count[verdict]++
		fmt.Printf("%-9s %6.1fs  %s (%s)\n", verdict, time.Since(took).Seconds(), m.name, m.erow)
	}
	fmt.Printf("%d entries: %d killed, %d survived, %d timed out, %d errors; %.0fs wall\n",
		len(list), count["killed"], count["survived"], count["timed out"], count["error"], time.Since(start).Seconds())
	if count["survived"]+count["error"] > 0 {
		return 1
	}
	return 0
}

// parse reads the mutants.txt format of the package comment.
func parse(text string) ([]mutant, error) {
	var list []mutant
	last := func() *mutant { return &list[len(list)-1] }
	for n, line := range strings.Split(text, "\n") {
		key, rest, _ := strings.Cut(strings.TrimSpace(line), " ")
		var err error
		switch extra := ""; {
		case key == "" || key[0] == '#':
		case key == "mutant":
			var name, erow string
			if k, _ := fmt.Sscanf(rest, "%s %s %s", &name, &erow, &extra); k != 2 ||
				slices.ContainsFunc(list, func(m mutant) bool { return m.name == name }) {
				err = errors.New("want mutant <name not used before> <E-row>")
			}
			list = append(list, mutant{name: name, erow: erow})
		case len(list) == 0:
			err = fmt.Errorf("%s before the first mutant", key)
		case key == "reason":
			last().reason = rest
		case key == "check":
			last().check = rest
		case key == "edit":
			var e edit
			if k, _ := fmt.Sscanf(rest, "%s %q %q %s", &e.file, &e.old, &e.new, &extra); k != 3 {
				err = errors.New("want edit <file> <Go-quoted old text> <Go-quoted new text>")
			}
			last().edits = append(last().edits, e)
		default:
			err = fmt.Errorf("unknown keyword %q", key)
		}
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", n+1, err)
		}
	}
	for _, m := range list {
		if m.reason == "" || m.check == "" || len(m.edits) == 0 {
			return nil, fmt.Errorf("mutant %s needs a reason, a check and an edit", m.name)
		}
	}
	return list, nil
}

// apply makes each edit in the copy, where every old text must occur
// once.  undo puts the repository's text back into each edited file.
func apply(dir string, edits []edit, undo bool) error {
	for _, e := range edits {
		f := filepath.Join(dir, e.file)
		data, err := os.ReadFile(map[bool]string{false: f, true: e.file}[undo])
		if n := strings.Count(string(data), e.old); err == nil && !undo && n != 1 {
			err = fmt.Errorf("%s: the old text occurs %d times, want 1: %q", e.file, n, e.old)
		}
		if err == nil && !undo {
			data = []byte(strings.Replace(string(data), e.old, e.new, 1))
		}
		if err == nil {
			err = os.WriteFile(f, data, 0)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// check runs a kill check from the copy's root in a process group of its
// own, killed whole at the timeout.  The error is nil iff it passed.
func check(dir, line string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, "sh", "-c", line)
	cmd.Dir = dir
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	cmd.WaitDelay = 5 * time.Second
	out, err := cmd.CombinedOutput()
	if ctx.Err() != nil {
		err = ctx.Err()
	}
	return out, err
}
