package faultinject

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestPointFireModes(t *testing.T) {
	r := NewRegistry()
	p := r.Point("test.fire", "fire modes")

	if err := p.Fire(); err != nil {
		t.Fatalf("disarmed point fired: %v", err)
	}

	if err := r.Arm("test.fire", Arming{Mode: ModeError}); err != nil {
		t.Fatal(err)
	}
	if err := p.Fire(); !errors.Is(err, ErrInjected) {
		t.Fatalf("error mode => %v, want ErrInjected", err)
	}

	if err := r.Arm("test.fire", Arming{Mode: ModeDiskFull}); err != nil {
		t.Fatal(err)
	}
	err := p.Fire()
	if !errors.Is(err, ErrDiskFull) || !errors.Is(err, ErrInjected) {
		t.Fatalf("disk-full mode => %v, want ErrDiskFull wrapping ErrInjected", err)
	}

	custom := errors.New("custom failure")
	if err := r.Arm("test.fire", Arming{Mode: ModeError, Err: custom}); err != nil {
		t.Fatal(err)
	}
	if err := p.Fire(); !errors.Is(err, custom) {
		t.Fatalf("custom error mode => %v", err)
	}

	r.Disarm("test.fire")
	if err := p.Fire(); err != nil {
		t.Fatalf("disarmed point fired: %v", err)
	}
	if p.fired.Load() != 3 {
		t.Fatalf("fired = %d, want 3", p.fired.Load())
	}
}

func TestPointPanicMode(t *testing.T) {
	r := NewRegistry()
	p := r.Point("test.panic", "")
	if err := r.Arm("test.panic", Arming{Mode: ModePanic, Count: 1}); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			rec := recover()
			if rec == nil || !strings.Contains(rec.(string), "test.panic") {
				t.Fatalf("recover = %v, want injected panic naming the point", rec)
			}
		}()
		p.Fire()
	}()
	// Count 1 exhausted → next Fire is clean.
	if err := p.Fire(); err != nil {
		t.Fatalf("exhausted panic point still fires: %v", err)
	}
}

func TestPointCountAutoDisarms(t *testing.T) {
	r := NewRegistry()
	p := r.Point("test.count", "")
	if err := r.Arm("test.count", Arming{Mode: ModeError, Count: 2}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := p.Fire(); err == nil {
			t.Fatalf("armed firing %d returned nil", i)
		}
	}
	for i := 0; i < 3; i++ {
		if err := p.Fire(); err != nil {
			t.Fatalf("exhausted point fired on extra call %d: %v", i, err)
		}
	}
	if got := p.fired.Load(); got != 2 {
		t.Fatalf("fired = %d, want exactly Count=2", got)
	}
}

func TestPointSlowMode(t *testing.T) {
	r := NewRegistry()
	p := r.Point("test.slow", "")
	if err := r.Arm("test.slow", Arming{Mode: ModeSlow, Delay: 20 * time.Millisecond, Count: 1}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := p.Fire(); err != nil {
		t.Fatalf("slow mode errored: %v", err)
	}
	if took := time.Since(start); took < 20*time.Millisecond {
		t.Fatalf("slow mode returned in %v, want >= 20ms", took)
	}
}

func TestPointSkew(t *testing.T) {
	r := NewRegistry()
	p := r.Point("test.skew", "")
	if s := p.Skew(); s != 0 {
		t.Fatalf("disarmed skew = %v", s)
	}
	if err := r.Arm("test.skew", Arming{Mode: ModeSkew, Skew: 45 * time.Second}); err != nil {
		t.Fatal(err)
	}
	if s := p.Skew(); s != 45*time.Second {
		t.Fatalf("skew = %v, want 45s", s)
	}
	// Skew arming does not make Fire fail.
	if err := p.Fire(); err != nil {
		t.Fatalf("skew-armed Fire errored: %v", err)
	}
}

func TestPointWriterTorn(t *testing.T) {
	r := NewRegistry()
	p := r.Point("test.torn", "")
	if err := r.Arm("test.torn", Arming{Mode: ModeTorn, Bytes: 5, Count: 1}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := p.Writer(&buf)
	n, err := w.Write([]byte("hello world"))
	if n != 5 || !errors.Is(err, ErrInjected) {
		t.Fatalf("torn write = (%d, %v), want (5, ErrInjected)", n, err)
	}
	if buf.String() != "hello" {
		t.Fatalf("torn prefix = %q, want %q", buf.String(), "hello")
	}
	// Arming consumed: next wrap is a pass-through.
	var buf2 bytes.Buffer
	w2 := p.Writer(&buf2)
	if n, err := w2.Write([]byte("clean")); n != 5 || err != nil {
		t.Fatalf("post-exhaustion write = (%d, %v)", n, err)
	}

	// A budget spanning several writes: the calls inside it pass whole,
	// the one that crosses it is torn at the offset, every later one fails
	// with nothing written — the shape of an encoder's header, payload and
	// trailer writes into a file that stops taking bytes.
	if err := r.Arm("test.torn", Arming{Mode: ModeTorn, Bytes: 10, Count: 1}); err != nil {
		t.Fatal(err)
	}
	var buf3 bytes.Buffer
	w3 := p.Writer(&buf3)
	for i, c := range []struct {
		in     string
		n      int
		failed bool
	}{{"head", 4, false}, {"er", 2, false}, {"payload", 4, true}, {"crc", 0, true}, {"x", 0, true}} {
		n, err := w3.Write([]byte(c.in))
		if n != c.n || errors.Is(err, ErrInjected) != c.failed {
			t.Fatalf("write %d (%q) = (%d, %v), want (%d, failed=%v)", i, c.in, n, err, c.n, c.failed)
		}
	}
	if buf3.String() != "headerpayl" {
		t.Fatalf("torn stream = %q, want the 10-byte prefix %q", buf3.String(), "headerpayl")
	}
}

func TestPointWriterDiskFull(t *testing.T) {
	r := NewRegistry()
	p := r.Point("test.df", "")
	if err := r.Arm("test.df", Arming{Mode: ModeDiskFull}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := p.Writer(&buf)
	if n, err := w.Write([]byte("data")); n != 0 || !errors.Is(err, ErrDiskFull) {
		t.Fatalf("disk-full write = (%d, %v)", n, err)
	}
	if buf.Len() != 0 {
		t.Fatalf("disk-full wrote %d bytes through", buf.Len())
	}
}

func TestRegistryArmValidation(t *testing.T) {
	r := NewRegistry()
	if err := r.Arm("x", Arming{Mode: "explode"}); err == nil {
		t.Fatal("unknown mode accepted")
	}
	// Arm registers unseen points so tests can arm before production code runs.
	if err := r.Arm("later", Arming{Mode: ModeError}); err != nil {
		t.Fatal(err)
	}
	if err := r.Point("later", "registered by production after arming").Fire(); err == nil {
		t.Fatal("pre-armed point did not fire")
	}
}

func TestChaosHandler(t *testing.T) {
	r := NewRegistry()
	r.Point("ckpt.write", "checkpoint write path")
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	post := func(path string, wantCode int) string {
		t.Helper()
		resp, err := srv.Client().Post(srv.URL+path, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b bytes.Buffer
		b.ReadFrom(resp.Body)
		if resp.StatusCode != wantCode {
			t.Fatalf("POST %s = %d (%s), want %d", path, resp.StatusCode, b.String(), wantCode)
		}
		return b.String()
	}

	post("/arm?point=ckpt.write&mode=torn&bytes=8&count=2", 200)
	post("/arm?point=ckpt.write&mode=bogus", 400)
	post("/arm?point=", 400)
	if body := post("/arm?point=ckpt.wrte&mode=error", 400); !strings.Contains(body, "known points: ckpt.write") {
		t.Fatalf("unknown point refused without naming the known ones: %q", body)
	}

	resp, err := srv.Client().Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap struct {
		Points []PointStatus `json:"points"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Points) != 1 || snap.Points[0].Name != "ckpt.write" {
		t.Fatalf("snapshot = %+v", snap.Points)
	}
	if snap.Points[0].Armed == nil || snap.Points[0].Armed.Mode != ModeTorn || snap.Points[0].Armed.Bytes != 8 {
		t.Fatalf("armed view = %+v", snap.Points[0].Armed)
	}

	post("/disarm?point=ckpt.write", 200)
	if err := r.Point("ckpt.write", "").Fire(); err != nil {
		t.Fatalf("disarmed via handler but still fires: %v", err)
	}

	// GET on /arm is rejected.
	getResp, err := srv.Client().Get(srv.URL + "/arm?point=x&mode=error")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != 405 {
		t.Fatalf("GET /arm = %d, want 405", getResp.StatusCode)
	}
}
