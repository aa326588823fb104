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
)

// cmdEnv, set in a child's environment, makes the test binary run
// dbconvert's main instead of the tests, so the tests need no build step.
const cmdEnv = "DBCONVERT_TEST_CMD"

func TestMain(m *testing.M) {
	if os.Getenv(cmdEnv) != "" {
		// The test flags are not the command's.
		flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// dbconvert runs the command with args to completion.
func dbconvert(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Args[0] = "dbconvert"
	cmd.Env = append(os.Environ(), cmdEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	var exit *exec.ExitError
	if err := cmd.Run(); err != nil && !errors.As(err, &exit) {
		t.Fatalf("dbconvert %s: %v", strings.Join(args, " "), err)
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

// TestDbconvert turns a FASTA file into .swdb, which -verify passes,
// rewrites it in place and back to FASTA, each holding the same
// sequences; a copy with one residue byte flipped fails -verify.
func TestDbconvert(t *testing.T) {
	dir := t.TempDir()
	want, err := swdual.GenerateDatabase("UniProt", 20000)
	if err != nil {
		t.Fatal(err)
	}
	fasta, swdb, back := filepath.Join(dir, "db.fasta"), filepath.Join(dir, "db.swdb"), filepath.Join(dir, "back.fasta")
	if err := want.SaveFASTA(fasta); err != nil {
		t.Fatal(err)
	}
	counts := fmt.Sprintf("%d sequences, %d residues", want.Len(), want.TotalResidues())
	for _, c := range []struct{ in, out string }{{fasta, swdb}, {swdb, swdb}, {swdb, back}} {
		stdout, stderr, code := dbconvert(t, "-in", c.in, "-out", c.out)
		if line := fmt.Sprintf("converted %d sequences (%d residues) %s -> %s\n", want.Len(), want.TotalResidues(), c.in, c.out); code != 0 || stdout != line {
			t.Fatalf("dbconvert -in %s -out %s: exit %d, stdout %q, want %q\n%s", c.in, c.out, code, stdout, line, stderr)
		}
		got, err := swdual.OpenDatabase(c.out)
		if err != nil {
			t.Fatal(err)
		}
		sameDatabase(t, got, want)
		got.Close()
		if c.out != swdb {
			continue
		}
		if stdout, stderr, code := dbconvert(t, "-in", swdb, "-verify"); code != 0 || stdout != fmt.Sprintf("%s: index OK, data CRC OK (%s)\n", swdb, counts) {
			t.Fatalf("dbconvert -verify: exit %d, stdout %q\n%s", code, stdout, stderr)
		}
	}

	// The first residue byte follows the 40-byte header.
	data, err := os.ReadFile(swdb)
	if err != nil {
		t.Fatal(err)
	}
	data[40] ^= 1
	flipped := filepath.Join(dir, "flipped.swdb")
	if err := os.WriteFile(flipped, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if stdout, stderr, code := dbconvert(t, "-in", flipped, "-verify"); code != 1 || stdout != "" || !strings.HasPrefix(stderr, "dbconvert: seqdb: data CRC mismatch") {
		t.Fatalf("dbconvert -verify of a flipped byte: exit %d, stdout %q, stderr %q, want exit 1 naming the CRC", code, stdout, stderr)
	}
	if _, stderr, code := dbconvert(t, "-in", fasta); code != 1 || stderr != "dbconvert: -out is required\n" {
		t.Fatalf("dbconvert without -out: exit %d, stderr %q", code, stderr)
	}
}
