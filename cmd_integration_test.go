package spatialjoin_test

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"spatialjoin/internal/datagen"
	"spatialjoin/internal/dstore"
	"spatialjoin/internal/extgeom"
	"spatialjoin/internal/textio"
	"spatialjoin/internal/tuple"
)

// cmdNames are the commands buildCmds compiles.
var cmdNames = []string{"sjoin", "datagen", "experiments", "sjoind", "sjoin-router", "sjoin-worker"}

// cmdBuild is the one build of the commands per test binary run; its
// directory is removed by TestMain.
var cmdBuild struct {
	once sync.Once
	dir  string
	err  error
}

func TestMain(m *testing.M) {
	code := m.Run()
	if cmdBuild.dir != "" {
		os.RemoveAll(cmdBuild.dir)
	}
	os.Exit(code)
}

// buildCmds compiles the command-line tools, on its first call only,
// into a shared temp dir and returns their paths by command name.
func buildCmds(t *testing.T) map[string]string {
	t.Helper()
	cmdBuild.once.Do(func() {
		dir, err := os.MkdirTemp("", "spatialjoin-cmds-")
		if err != nil {
			cmdBuild.err = err
			return
		}
		cmdBuild.dir = dir
		args := []string{"build", "-o", dir + string(filepath.Separator)}
		for _, name := range cmdNames {
			args = append(args, "./cmd/"+name)
		}
		if msg, err := exec.Command("go", args...).CombinedOutput(); err != nil {
			cmdBuild.err = fmt.Errorf("%v\n%s", err, msg)
		}
	})
	if cmdBuild.err != nil {
		t.Fatalf("building the commands: %v", cmdBuild.err)
	}
	out := map[string]string{}
	for _, name := range cmdNames {
		out[name] = filepath.Join(cmdBuild.dir, name)
	}
	return out
}

func runCmd(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

func TestCommandLinePipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bins := buildCmds(t)
	dir := t.TempDir()
	rPath := filepath.Join(dir, "r.txt")
	sPath := filepath.Join(dir, "s.txt")
	outPath := filepath.Join(dir, "pairs.txt")

	// Generate two small data sets.
	out := runCmd(t, bins["datagen"], "-kind", "gaussian", "-n", "5000", "-seed", "101", "-out", rPath)
	if !strings.Contains(out, "wrote 5000 gaussian points") {
		t.Fatalf("datagen output: %s", out)
	}
	runCmd(t, bins["datagen"], "-kind", "tiger", "-n", "5000", "-seed", "303", "-out", sPath)

	// Join them with two algorithms; results must agree.
	resultsOf := func(algo string) string {
		out := runCmd(t, bins["sjoin"], "-r", rPath, "-s", sPath, "-eps", "0.8", "-algo", algo, "-out", outPath)
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "results") {
				return strings.Fields(line)[1]
			}
		}
		t.Fatalf("no results line in sjoin output: %s", out)
		return ""
	}
	lpib := resultsOf("lpib")
	unir := resultsOf("uni-r")
	if lpib != unir {
		t.Fatalf("algorithms disagree via CLI: lpib=%s, uni-r=%s", lpib, unir)
	}

	// The pairs file must hold exactly that many lines.
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(string(data), "\n")
	if wantLines := lpib; wantLines != "" {
		n := 0
		for _, c := range wantLines {
			n = n*10 + int(c-'0')
		}
		if lines != n {
			t.Fatalf("pairs file has %d lines, results said %d", lines, n)
		}
	}

	// experiments -list shows the registry; a tiny table1 run works.
	list := runCmd(t, bins["experiments"], "-list")
	for _, id := range []string{"fig10", "table6", "xobjects"} {
		if !strings.Contains(list, id) {
			t.Fatalf("experiments -list missing %s:\n%s", id, list)
		}
	}
	t1 := runCmd(t, bins["experiments"], "-exp", "table1", "-quick")
	if !strings.Contains(t1, "Universal replication of R set") {
		t.Fatalf("table1 output unexpected:\n%s", t1)
	}
}

func TestCommandErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bins := buildCmds(t)
	fails := [][]string{
		{bins["sjoin"]}, // missing required flags
		{bins["sjoin"], "-r", "x", "-s", "y", "-eps", "0"}, // bad eps
		{bins["sjoin"], "-r", "missing.txt", "-s", "missing.txt", "-eps", "1"},
		{bins["datagen"], "-kind", "nope", "-out", "z.txt"},
		{bins["datagen"]}, // missing -out
		{bins["experiments"], "-exp", "nope"},
		{bins["experiments"]}, // no action
	}
	for _, args := range fails {
		cmd := exec.Command(args[0], args[1:]...)
		if err := cmd.Run(); err == nil {
			t.Errorf("%v should have failed", args)
		}
	}
}

// TestDatagenStreamOut checks the -stream-out path end to end: the
// streamed columnar file must contain exactly the points the in-memory
// generator produces for the same (kind, n, seed), payloads included.
func TestDatagenStreamOut(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bins := buildCmds(t)
	dir := t.TempDir()
	col := filepath.Join(dir, "r1.col")
	out := runCmd(t, bins["datagen"], "-kind", "tiger", "-n", "20000", "-seed", "303", "-payload", "4", "-stream-out", col)
	if !strings.Contains(out, "wrote 20000 tiger points") {
		t.Fatalf("datagen output: %s", out)
	}

	r, err := dstore.OpenColFile(col)
	if err != nil {
		t.Fatalf("opening streamed colfile: %v", err)
	}
	defer r.Close()
	got, err := r.Tuples()
	if err != nil {
		t.Fatalf("reading streamed colfile: %v", err)
	}
	want := datagen.TigerLike(datagen.World(), 20000, 303, 0)
	if len(got) != len(want) {
		t.Fatalf("streamed file has %d points, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || got[i].Pt != want[i].Pt {
			t.Fatalf("point %d = %+v, want %+v (draw order diverged)", i, got[i], want[i])
		}
		if string(got[i].Payload) != "xxxx" {
			t.Fatalf("point %d payload = %q", i, got[i].Payload)
		}
	}

	// Flag validation: -out and -stream-out are mutually exclusive.
	if _, err := exec.Command(bins["datagen"], "-out", "a", "-stream-out", "b").CombinedOutput(); err == nil {
		t.Fatal("datagen accepted both -out and -stream-out")
	}
}

// TestDatagenGeomOut checks the -geom path end to end: the text output
// must parse back as the exact objects the in-memory generator draws,
// and the streamed columnar file must carry the same objects in the
// same order as geometry wire payloads.
func TestDatagenGeomOut(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bins := buildCmds(t)
	dir := t.TempDir()
	txt := filepath.Join(dir, "geo.txt")
	col := filepath.Join(dir, "geo.col")
	args := []string{"-kind", "uniform", "-geom", "polygon", "-n", "2000",
		"-seed", "5", "-min-size", "0.5", "-max-size", "2", "-verts", "5"}
	out := runCmd(t, bins["datagen"], append(args, "-out", txt)...)
	if !strings.Contains(out, "wrote 2000 uniform polygon objects") {
		t.Fatalf("datagen output: %s", out)
	}
	runCmd(t, bins["datagen"], append(args, "-stream-out", col)...)

	w := datagen.World()
	want, err := datagen.GeomObjects(
		datagen.GeomSpec{Kind: "polygon", MinExtent: 0.5, MaxExtent: 2, Verts: 5, ShapeSeed: 6},
		func(emit func(tuple.Tuple)) { datagen.UniformEach(w, 2000, 5, 0, emit) })
	if err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(txt)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := textio.ReadGeoms(f, 0)
	if err != nil {
		t.Fatalf("reading text output: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("text file has %d objects, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || got[i].Kind != want[i].Kind || len(got[i].Verts) != len(want[i].Verts) {
			t.Fatalf("text object %d = %+v, want %+v (draw order diverged)", i, got[i], want[i])
		}
		for j := range want[i].Verts {
			if got[i].Verts[j] != want[i].Verts[j] {
				t.Fatalf("text object %d vertex %d diverged", i, j)
			}
		}
	}

	r, err := dstore.OpenColFile(col)
	if err != nil {
		t.Fatalf("opening streamed colfile: %v", err)
	}
	defer r.Close()
	ts, err := r.Tuples()
	if err != nil {
		t.Fatalf("reading streamed colfile: %v", err)
	}
	if len(ts) != len(want) {
		t.Fatalf("streamed file has %d tuples, want %d", len(ts), len(want))
	}
	for i := range want {
		o, err := extgeom.DecodeObject(ts[i].ID, ts[i].Payload)
		if err != nil {
			t.Fatalf("tuple %d payload does not decode: %v", i, err)
		}
		if o.ID != want[i].ID || o.Kind != want[i].Kind || len(o.Verts) != len(want[i].Verts) {
			t.Fatalf("streamed object %d diverged from in-memory draw", i)
		}
		for j := range want[i].Verts {
			if o.Verts[j] != want[i].Verts[j] {
				t.Fatalf("streamed object %d vertex %d diverged", i, j)
			}
		}
		if ts[i].Pt != o.Bounds().Center() {
			t.Fatalf("tuple %d point %v is not the MBR center", i, ts[i].Pt)
		}
	}

	// -payload and -geom are mutually exclusive.
	if _, err := exec.Command(bins["datagen"], append(args, "-payload", "4", "-out", txt)...).CombinedOutput(); err == nil {
		t.Fatal("datagen accepted -payload with -geom")
	}

	// A bad spec fails with one "datagen: " prefix and leaves no file.
	bad := filepath.Join(dir, "bad")
	for _, flags := range [][]string{
		{"-geom", "polygon", "-max-size", "nan", "-out", bad},
		{"-geom", "polygon", "-max-size", "inf", "-stream-out", bad},
		{"-geom", "blob", "-stream-out", bad},
	} {
		msg, err := exec.Command(bins["datagen"], append([]string{"-n", "10"}, flags...)...).CombinedOutput()
		if err == nil {
			t.Errorf("datagen %v succeeded", flags)
		}
		if strings.Count(string(msg), "datagen: ") != 1 {
			t.Errorf("datagen %v printed %q, want one \"datagen: \" prefix", flags, msg)
		}
		if _, err := os.Stat(bad); !os.IsNotExist(err) {
			t.Errorf("datagen %v left %s behind", flags, bad)
			os.Remove(bad)
		}
	}
}
