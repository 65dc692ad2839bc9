package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// module is a throwaway module named repro, so the analyzers' path-suffix
// matching sees internal/relation where it expects it: a sentinel, a
// package comparing it with == in a non-test and in a test file, an
// external test package, and a package with nothing to report.
var module = map[string]string{
	"go.mod":                        "module repro\n\ngo 1.24\n",
	"internal/relation/relation.go": "package relation\n\nimport \"errors\"\n\nvar ErrConflict = errors.New(\"conflict\")\n",
	"internal/bad/bad.go": `package bad

import "repro/internal/relation"

func Retry(err error) bool { return err == relation.ErrConflict }
`,
	"internal/bad/bad_test.go": `package bad

import "repro/internal/relation"

func retryInTest(err error) bool { return err == relation.ErrConflict }
`,
	"internal/bad/bad_x_test.go": `package bad_test

import "repro/internal/bad"

var _ = bad.Retry
`,
	"internal/clean/clean.go": `package clean

import (
	"errors"

	"repro/internal/relation"
)

func Retry(err error) bool { return errors.Is(err, relation.ErrConflict) }
`,
}

// TestVetToolProtocol drives the command the way `go vet -vettool` does:
// the three verbs, diagnostics as file:line:col: message for a package
// and its test variant, silence and exit 0 on a clean tree, usage and
// exit 2 for anything else.
func TestVetToolProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the command and runs go vet")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "arcvet")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	run := func(dir string, args ...string) (stdout, stderr string, exit int) {
		t.Helper()
		cmd := exec.Command(args[0], args[1:]...)
		cmd.Dir = dir
		cmd.Env = append(os.Environ(), "GOPROXY=off", "GOTOOLCHAIN=local", "GOFLAGS=")
		var o, e bytes.Buffer
		cmd.Stdout, cmd.Stderr = &o, &e
		var exited *exec.ExitError
		if err := cmd.Run(); err != nil && !errors.As(err, &exited) {
			t.Fatalf("%v: %v", args, err)
		}
		return o.String(), e.String(), cmd.ProcessState.ExitCode()
	}

	if out, _, exit := run(tmp, bin, "-flags"); strings.TrimSpace(out) != "[]" || exit != 0 {
		t.Errorf("-flags printed %q (exit %d), want [] (exit 0)", out, exit)
	}
	// cmd/go/internal/work.(*Builder).toolID: at least three fields, the
	// second "version", and after "devel" a last field "buildID=<id>".
	versionRE := regexp.MustCompile(`^arcvet version devel buildID=[0-9a-f]{64}\n$`)
	v1, _, exit := run(tmp, bin, "-V=full")
	if !versionRE.MatchString(v1) || exit != 0 {
		t.Errorf("-V=full printed %q (exit %d), want it to match %s", v1, exit, versionRE)
	}
	exe, err := os.ReadFile(bin)
	if err != nil {
		t.Fatal(err)
	}
	bin2 := filepath.Join(tmp, "arcvet2")
	if err := os.WriteFile(bin2, append(exe, 0), 0o755); err != nil {
		t.Fatal(err)
	}
	if v2, _, _ := run(tmp, bin2, "-V=full"); !versionRE.MatchString(v2) || v2 == v1 {
		t.Errorf("-V=full printed %q for a changed binary, %q for the original", v2, v1)
	}
	for _, args := range [][]string{{}, {"help"}, {"-json", "x.cfg"}, {"-errcmp=false"}} {
		_, stderr, exit := run(tmp, append([]string{bin}, args...)...)
		if exit != 2 || stderr != "usage: go vet -vettool=bin/arcvet ./...\n" {
			t.Errorf("arcvet %v: exit %d, stderr %q; want the usage line and exit 2", args, exit, stderr)
		}
	}

	write := func(dir string, fix bool) string {
		t.Helper()
		root := filepath.Join(tmp, dir)
		for name, src := range module {
			if fix { // nil is no sentinel: nothing left to report
				src = strings.ReplaceAll(src, "err == relation.ErrConflict", "err == nil && relation.ErrConflict != nil")
			}
			path := filepath.Join(root, filepath.FromSlash(name))
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return root
	}

	_, stderr, exit := run(write("dirty", false), goTool, "vet", "-vettool="+bin, "./...")
	if exit == 0 {
		t.Errorf("go vet over two violations exited 0; stderr:\n%s", stderr)
	}
	for _, want := range []string{
		`(?m)^internal/bad/bad\.go:5:41: comparison of sentinel ErrConflict with ==; `,
		`(?m)^internal/bad/bad_test\.go:5:47: comparison of sentinel ErrConflict with ==; `,
	} {
		if !regexp.MustCompile(want).MatchString(stderr) {
			t.Errorf("go vet stderr does not match %s:\n%s", want, stderr)
		}
	}
	if strings.Contains(stderr, "clean") || strings.Contains(stderr, "bad_x_test") {
		t.Errorf("diagnostic in a package with nothing to report:\n%s", stderr)
	}

	if _, stderr, exit := run(write("fixed", true), goTool, "vet", "-vettool="+bin, "./..."); exit != 0 || stderr != "" {
		t.Errorf("go vet over a violation-free module: exit %d, stderr:\n%s", exit, stderr)
	}
}
