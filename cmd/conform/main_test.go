package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/conform"
)

func runMain(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code, err := run(context.Background(), args, &out, &errOut)
	if err != nil {
		t.Fatalf("conform %s: %v", strings.Join(args, " "), err)
	}
	return code, out.String(), errOut.String()
}

// modes are the CLI's two harnesses: the flags selecting one, the
// prefix of its messages, a family for one-seed corpora, its committed
// corpus and the flags its corpus check adds (only the single-node
// harness has a worker count).
var modes = []struct {
	name   string
	flags  []string
	prefix string
	family string
	corpus string
	check  []string
}{
	{"single-node", nil, "", "single-app", "golden.json", []string{"-workers", "3"}},
	{"fleet", []string{"-fleet"}, "fleet ", "fleet-burst", "golden_fleet.json", nil},
}

func TestSmallSweepMarkdown(t *testing.T) {
	code, out, _ := runMain(t, "-seeds", "2", "-families", "single-app,zero-work", "-workers", "2")
	if code != 0 {
		t.Fatalf("exit code %d, want 0", code)
	}
	for _, want := range []string{"# Conformance report", "single-app", "zero-work", "0 violation(s)"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown output missing %q:\n%s", want, out)
		}
	}
}

func TestNDJSONFormat(t *testing.T) {
	code, out, _ := runMain(t, "-seeds", "1", "-families", "single-app", "-format", "ndjson")
	if code != 0 {
		t.Fatalf("exit code %d, want 0", code)
	}
	sc := bufio.NewScanner(strings.NewReader(out))
	var summarySeen bool
	for sc.Scan() {
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON %q: %v", sc.Text(), err)
		}
		if line["type"] == "summary" {
			summarySeen = true
			if line["violations"].(float64) != 0 {
				t.Errorf("summary reports violations: %v", line)
			}
		}
	}
	if !summarySeen {
		t.Error("no summary line in NDJSON output")
	}
}

// TestCommittedGoldenCorpus drives the CLI end-to-end against each of
// the repository's committed digest corpora — the same gates CI runs —
// and checks that the other mode's corpus fails as incomparable.
func TestCommittedGoldenCorpus(t *testing.T) {
	for i, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			testdata := filepath.Join("..", "..", "internal", "conform", "testdata")
			code, _, errOut := runMain(t, append(append(m.flags, "-golden", filepath.Join(testdata, m.corpus)), m.check...)...)
			if code != 0 {
				t.Fatalf("golden check failed (exit %d):\n%s", code, errOut)
			}
			if want := "conform: " + m.prefix + "golden digests match"; !strings.Contains(errOut, want) {
				t.Errorf("missing %q:\n%s", want, errOut)
			}

			other := modes[1-i].corpus
			code, _, errOut = runMain(t, append(m.flags, "-golden", filepath.Join(testdata, other))...)
			if want := "conform: golden mismatch: " + m.prefix + "golden corpus computed under"; code != 1 || !strings.Contains(errOut, want) {
				t.Errorf("%s checked against %s: exit %d, want 1 and %q in:\n%s", m.name, other, code, want, errOut)
			}
		})
	}
}

// TestGoldenUpdateRoundTrip: a corpus written with -update checks
// clean, and a corrupted digest in it fails the check with one exact
// mismatch line.
func TestGoldenUpdateRoundTrip(t *testing.T) {
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "golden.json")
			code, _, errOut := runMain(t, append(m.flags, "-seeds", "1", "-families", m.family, "-golden", path, "-update")...)
			if code != 0 {
				t.Fatalf("update failed (exit %d):\n%s", code, errOut)
			}
			code, _, errOut = runMain(t, append(m.flags, "-golden", path)...)
			if code != 0 {
				t.Fatalf("re-check failed (exit %d):\n%s", code, errOut)
			}

			gold, err := conform.LoadGolden(path)
			if err != nil {
				t.Fatal(err)
			}
			digest := gold.Digests[m.family]
			gold.Digests[m.family] = strings.Repeat("0", 64)
			if err := conform.SaveGolden(path, gold); err != nil {
				t.Fatal(err)
			}
			code, _, errOut = runMain(t, append(m.flags, "-golden", path)...)
			want := fmt.Sprintf("conform: golden mismatch: %sfamily %s: digest %s… != golden 000000000000…\n",
				m.prefix, m.family, digest[:12])
			if code != 1 || !strings.Contains(errOut, want) {
				t.Errorf("corrupted corpus: exit %d, want 1 and %q in:\n%s", code, want, errOut)
			}
		})
	}
}

func TestBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // in the error, when set
	}{
		{args: []string{"-format", "xml"}},
		{args: []string{"-families", "bogus"}},
		{args: []string{"-golden", filepath.Join(t.TempDir(), "nope.json")}},
		{args: []string{"-fleet", "-selector", "x"}, want: "-selector applies to the single-node harness, not -fleet"},
		{args: []string{"-fleet", "-workers", "8"}, want: "-workers applies to the single-node harness, not -fleet"},
		{args: []string{"-fleet", "-seeds", "1", "-grid", "3", "-oracle-max", "2", "-min-apps", "7"}, want: "applies to the single-node harness, not -fleet"},
		{args: []string{"-fleet", "-oracle-max", "2"}, want: "-oracle-max applies to the single-node harness"},
		{args: []string{"-fleet", "-min-apps", "7"}, want: "-min-apps applies to the single-node harness"},
		{args: []string{"-fleet", "-max-apps", "7"}, want: "-max-apps applies to the single-node harness"},
		{args: []string{"-fleet", "-selector-gap-bound", "1.1"}, want: "-selector-gap-bound applies to the single-node harness"},
	} {
		var out, errOut bytes.Buffer
		code, err := run(context.Background(), tc.args, &out, &errOut)
		if err == nil || code != 2 {
			t.Errorf("%v: code %d err %v, want 2 and an error", tc.args, code, err)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %q, want %q", tc.args, err, tc.want)
		}
	}
}

func TestUpdateRequiresGolden(t *testing.T) {
	var out, errOut bytes.Buffer
	if code, err := run(context.Background(), []string{"-update"}, &out, &errOut); err == nil || code != 2 {
		t.Errorf("-update without -golden: code %d err %v", code, err)
	}
}

// TestGoldenCheckAnnouncesParameterOverride: check mode must say it is
// running the corpus's recorded parameters, not the flags.
func TestGoldenCheckAnnouncesParameterOverride(t *testing.T) {
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "golden.json")
			if code, _, _ := runMain(t, append(m.flags, "-seeds", "1", "-families", m.family, "-golden", path, "-update")...); code != 0 {
				t.Fatal("update failed")
			}
			_, _, errOut := runMain(t, append(m.flags, "-golden", path, "-seeds", "99")...)
			if !strings.Contains(errOut, "recorded parameters (seeds=1 ") {
				t.Errorf("no override notice:\n%s", errOut)
			}
		})
	}
}
