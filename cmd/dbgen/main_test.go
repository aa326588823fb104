package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"swdual"
	"swdual/internal/seqdb"
)

// cmdEnv, set in a child's environment, makes the test binary run
// dbgen's main instead of the tests, so the tests need no build step.
const cmdEnv = "DBGEN_TEST_CMD"

func TestMain(m *testing.M) {
	if os.Getenv(cmdEnv) != "" {
		// The test flags are not the command's.
		flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// dbgen runs the command with args to completion.
func dbgen(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Args[0] = "dbgen"
	cmd.Env = append(os.Environ(), cmdEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	var exit *exec.ExitError
	if err := cmd.Run(); err != nil && !errors.As(err, &exit) {
		t.Fatalf("dbgen %s: %v", strings.Join(args, " "), err)
	}
	return out.String(), errOut.String(), cmd.ProcessState.ExitCode()
}

// sameDatabase fails the test unless got holds want's sequences.
func sameDatabase(t *testing.T, got, want *swdual.Database) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%d sequences, want %d", got.Len(), want.Len())
	}
	for i := range want.Len() {
		gid, gres := got.Sequence(i)
		wid, wres := want.Sequence(i)
		if gid != wid || gres != wres {
			t.Fatalf("sequence %d is %s %s, want %s %s", i, gid, gres, wid, wres)
		}
	}
}

// TestDbgen writes a preset as FASTA and as .swdb and a query set, each
// holding what the library generates, and checks the refusals and -list.
func TestDbgen(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		args []string
		gen  func() (*swdual.Database, error)
	}{
		{[]string{"-preset", "UniProt", "-scale", "20000"}, func() (*swdual.Database, error) { return swdual.GenerateDatabase("UniProt", 20000) }},
		{[]string{"-queries", "standard", "-scale", "400"}, func() (*swdual.Database, error) { return swdual.GenerateQueries("standard", 400) }},
	} {
		want, err := c.gen()
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"db.fasta", "db.swdb"} {
			path := filepath.Join(dir, name)
			stdout, stderr, code := dbgen(t, append(c.args, "-out", path)...)
			if line := fmt.Sprintf("wrote %d sequences (%d residues) to %s\n", want.Len(), want.TotalResidues(), path); code != 0 || stdout != line {
				t.Fatalf("dbgen %v -out %s: exit %d, stdout %q, want %q\n%s", c.args, name, code, stdout, line, stderr)
			}
			got, err := swdual.OpenDatabase(path)
			if err != nil {
				t.Fatal(err)
			}
			sameDatabase(t, got, want)
			got.Close()
		}
		m, err := seqdb.Open(filepath.Join(dir, "db.swdb"))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Verify(); err != nil {
			t.Fatal(err)
		}
		m.Close()
	}

	for _, c := range []struct {
		args []string
		want string
	}{
		{nil, "dbgen: exactly one of -preset or -queries is required\n"},
		{[]string{"-preset", "UniProt", "-queries", "standard", "-out", "x.fasta"}, "dbgen: exactly one of -preset or -queries is required\n"},
		{[]string{"-preset", "UniProt"}, "dbgen: -out is required\n"},
		{[]string{"-preset", "Swiss", "-out", filepath.Join(dir, "x.fasta")}, "Swiss"},
	} {
		if _, stderr, code := dbgen(t, c.args...); code != 1 || !strings.Contains(stderr, c.want) {
			t.Errorf("dbgen %v: exit %d, stderr %q, want exit 1 naming %q", c.args, code, stderr, c.want)
		}
	}
	if stdout, _, code := dbgen(t, "-list"); code != 0 || len(strings.Split(strings.TrimSpace(stdout), "\n")) != 5 || !strings.Contains(stdout, "UniProt\n") {
		t.Errorf("dbgen -list: exit %d, stdout %q, want the five presets", code, stdout)
	}
}
