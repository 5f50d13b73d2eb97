package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	regalloc "repro"
	"repro/internal/experiments"
	"repro/internal/ir"
	"repro/internal/irbin"
	"repro/internal/progs"
	"repro/internal/target"
)

// postBinary sends concatenated irbin frames to /allocate under the
// binary content type.
func postBinary(t *testing.T, url string, query string, frames []byte, wantCode int, out any) {
	t.Helper()
	resp, err := http.Post(url+"/allocate?"+query, ContentTypeBinaryIR, bytes.NewReader(frames))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		var e ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("status %d, want %d (error: %s)", resp.StatusCode, wantCode, e.Error)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAllocateBinaryConformance proves the binary arm of /allocate is
// observationally identical to the text arm: the same program sent both
// ways, each form to its own fresh server so both are cache misses,
// yields the same content-address key and the same allocated program
// text. The binary body then goes to the text server too and must hit
// the entry the text arm stored, so the two arms share one cache.
// Inputs are one tiny-machine program plus one x86-8 program per
// generator profile, all under binpack.
func TestAllocateBinaryConformance(t *testing.T) {
	type input struct {
		name, machine, text string
	}
	inputs := []input{{"tiny/default", "tiny:6,4", workloadText(t, "tiny:6,4", 3)}}
	const preset = "x86-8"
	x86, err := target.Parse(preset)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := experiments.Workload(x86, nil, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, job := range jobs {
		inputs = append(inputs, input{preset + "/" + job.Profile, preset, job.Text})
	}

	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			mach, err := target.Parse(in.machine)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := ir.ParseProgramString(in.text, mach)
			if err != nil {
				t.Fatal(err)
			}
			_, textSrv := newTestServer(t, Config{})
			var fromText AllocateResponse
			post(t, textSrv.URL, AllocateRequest{Machine: in.machine, Algorithm: "binpack", Program: in.text}, http.StatusOK, &fromText)
			query := "machine=" + in.machine + "&algorithm=binpack"
			frame := irbin.EncodeProgram(prog)
			_, binSrv := newTestServer(t, Config{})
			var fromBin AllocateResponse
			postBinary(t, binSrv.URL, query, frame, http.StatusOK, &fromBin)
			var binHit AllocateResponse
			postBinary(t, textSrv.URL, query, frame, http.StatusOK, &binHit)

			if len(fromBin.Results) != 1 {
				t.Fatalf("%d results, want 1", len(fromBin.Results))
			}
			tr, br := fromText.Results[0], fromBin.Results[0]
			if tr.Cached || br.Cached {
				t.Fatalf("fresh servers answered from cache (text %v, binary %v)", tr.Cached, br.Cached)
			}
			if br.Key != tr.Key {
				t.Errorf("binary key %s != text key %s: the two front ends hit different cache lines", br.Key, tr.Key)
			}
			if br.Program != tr.Program {
				t.Errorf("binary and text arms allocated differently:\ntext:\n%s\nbinary:\n%s", tr.Program, br.Program)
			}
			if br.Report == nil {
				t.Error("binary response missing report")
			}
			if len(binHit.Results) != 1 {
				t.Fatalf("%d results from the text server's binary arm, want 1", len(binHit.Results))
			}
			if hr := binHit.Results[0]; !hr.Cached {
				t.Error("binary body missed the entry the text body stored: the arms do not share one cache")
			} else if hr.Key != tr.Key || hr.Program != tr.Program {
				t.Errorf("binary cache hit differs from the text miss: key %s vs %s, program equal %v", hr.Key, tr.Key, hr.Program == tr.Program)
			}
			allocated, err := ir.ParseProgramString(br.Program, mach)
			if err != nil {
				t.Fatalf("binary response program does not parse: %v", err)
			}
			if err := ir.ValidateAllocated(allocated.Proc("main"), mach); err != nil {
				t.Errorf("binary response not validly allocated: %v", err)
			}
		})
	}
}

// TestGeneratedFrameMatchesText sends generator programs the way a
// client that never parses text does: the frame encodes the program
// built in memory, whose temp numbering differs from the parser's. Such
// a frame is a different cache entry from the text body, but binpack
// must still answer both with the same program.
func TestGeneratedFrameMatchesText(t *testing.T) {
	const preset = "x86-8"
	mach, err := target.Parse(preset)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{})
	for _, profile := range progs.Profiles() {
		for seed := int64(0); seed < 3; seed++ {
			cfg, err := progs.ProfileGen(profile, seed)
			if err != nil {
				t.Fatal(err)
			}
			prog := progs.Random(mach, cfg)
			var text strings.Builder
			(&ir.Printer{Mach: mach}).WriteProgram(&text, prog)
			var fromText, fromBin AllocateResponse
			post(t, ts.URL, AllocateRequest{Machine: preset, Program: text.String()}, http.StatusOK, &fromText)
			postBinary(t, ts.URL, "machine="+preset, irbin.EncodeProgram(prog), http.StatusOK, &fromBin)
			if fromText.Results[0].Program != fromBin.Results[0].Program {
				t.Errorf("%s/%d: generator frame and its text allocated differently", profile, seed)
			}
		}
	}
}

func TestAllocateBinaryBatch(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const machine = "tiny:8,4"
	mach, err := target.Parse(machine)
	if err != nil {
		t.Fatal(err)
	}
	var frames []byte
	var want []string
	for seed := int64(1); seed <= 3; seed++ {
		text := workloadText(t, machine, seed)
		prog, err := ir.ParseProgramString(text, mach)
		if err != nil {
			t.Fatal(err)
		}
		frames = irbin.AppendProgram(frames, prog)
		want = append(want, text)
	}
	var out AllocateResponse
	postBinary(t, ts.URL, "machine="+machine, frames, http.StatusOK, &out)
	if len(out.Results) != len(want) {
		t.Fatalf("%d results, want %d", len(out.Results), len(want))
	}
	seen := map[string]bool{}
	for i, res := range out.Results {
		if !strings.HasPrefix(res.Key, "sha256:") {
			t.Errorf("result %d key %q is not a content address", i, res.Key)
		}
		if seen[res.Key] {
			t.Errorf("result %d repeats key %s", i, res.Key)
		}
		seen[res.Key] = true
	}
}

func TestAllocateBinaryRejects(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	mach, err := target.Parse("tiny:6,4")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ir.ParseProgramString(workloadText(t, "tiny:6,4", 1), mach)
	if err != nil {
		t.Fatal(err)
	}
	valid := irbin.EncodeProgram(prog)

	// Empty body.
	postBinary(t, ts.URL, "machine=tiny:6,4", nil, http.StatusBadRequest, nil)
	// Garbage bytes.
	postBinary(t, ts.URL, "machine=tiny:6,4", []byte("garbage"), http.StatusBadRequest, nil)
	// Truncated frame.
	postBinary(t, ts.URL, "machine=tiny:6,4", valid[:len(valid)-4], http.StatusBadRequest, nil)
	// Trailing garbage after a valid frame.
	postBinary(t, ts.URL, "machine=tiny:6,4", append(bytes.Clone(valid), 'x'), http.StatusBadRequest, nil)
	// Missing machine.
	postBinary(t, ts.URL, "", valid, http.StatusBadRequest, nil)
}

// TestBinaryKeyCoversSlotCount sends a program as text, then as a
// frame that differs only in what the text form cannot say: a larger
// slot count. The allocator numbers its spill slots from that count,
// so the binary request must not hit the text request's entry; it must
// get its own key and the program a direct allocation gives.
func TestBinaryKeyCoversSlotCount(t *testing.T) {
	const machine = "tiny:6,4"
	_, ts := newTestServer(t, Config{})
	text := workloadText(t, machine, 24)
	var fromText, fromBinary AllocateResponse
	post(t, ts.URL, AllocateRequest{Machine: machine, Program: text}, http.StatusOK, &fromText)

	mach, err := target.Parse(machine)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ir.ParseProgramString(text, mach)
	if err != nil {
		t.Fatal(err)
	}
	prog.Proc(prog.Main).NumSlots += 5
	postBinary(t, ts.URL, "machine="+machine, irbin.EncodeProgram(prog), http.StatusOK, &fromBinary)
	got := fromBinary.Results[0]
	if got.Cached || got.Key == fromText.Results[0].Key {
		t.Fatalf("binary body with a larger slot count hit the text entry (key %s)", got.Key)
	}
	eng, err := regalloc.New(mach, regalloc.WithVerify(true))
	if err != nil {
		t.Fatal(err)
	}
	out, _, key, err := eng.AllocateCached(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	(&ir.Printer{Mach: mach}).WriteProgram(&sb, out)
	if got.Key != string(key) || got.Program != sb.String() {
		t.Error("binary result differs from a direct allocation of the same program")
	}
}
