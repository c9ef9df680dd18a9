package faultpoint

import (
	"errors"
	"testing"
	"time"
)

// Armed reports whether any fault point is armed.
func Armed() bool { return armed.Load() }

// Tests share the package-global registry, so each arms fresh and disarms
// on cleanup. (Under a chaos run the env arming is replaced for the
// duration of the test; that is the point.)
func arm(t *testing.T, spec string) {
	t.Helper()
	Disarm()
	if err := Arm(spec); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(Disarm)
}

func TestDisarmedIsNil(t *testing.T) {
	Disarm()
	if Armed() {
		t.Fatal("armed after Disarm")
	}
	if err := Hit("anything"); err != nil {
		t.Fatalf("disarmed Hit returned %v", err)
	}
}

func TestErrorMode(t *testing.T) {
	arm(t, "x=error")
	err := Hit("x")
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	var inj *InjectedError
	if !errors.As(err, &inj) || inj.Point != "x" {
		t.Fatalf("want InjectedError{x}, got %#v", err)
	}
	if err := Hit("other"); err != nil {
		t.Fatalf("unarmed point fired: %v", err)
	}
}

func TestAfterCount(t *testing.T) {
	arm(t, "x=error:after=3")
	for i := 1; i <= 5; i++ {
		err := Hit("x")
		if (i == 3) != (err != nil) {
			t.Fatalf("hit %d: err=%v", i, err)
		}
	}
	if Hits("x") != 5 {
		t.Fatalf("hits = %d, want 5", Hits("x"))
	}
}

func TestSlowMode(t *testing.T) {
	arm(t, "x=slow:delay=30ms")
	start := time.Now()
	if err := Hit("x"); err != nil {
		t.Fatalf("slow mode returned error %v", err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("slow hit returned after %v", d)
	}
}

func TestDelayNeverErrors(t *testing.T) {
	arm(t, "x=error")
	Delay("x") // must not panic or leak the error
	if Hits("x") != 1 {
		t.Fatalf("Delay did not count the hit")
	}
}

func TestProbability(t *testing.T) {
	arm(t, "x=error:p=0.5")
	Seed(42)
	fired := 0
	for i := 0; i < 1000; i++ {
		if Hit("x") != nil {
			fired++
		}
	}
	if fired < 350 || fired > 650 {
		t.Fatalf("p=0.5 fired %d/1000", fired)
	}
}

func TestMultiEntrySpec(t *testing.T) {
	arm(t, "a=error; b=slow:delay=1us, c=error:after=2")
	if Hit("a") == nil {
		t.Fatal("a not armed")
	}
	if Hit("b") != nil {
		t.Fatal("b should be slow, not error")
	}
	if Hit("c") != nil {
		t.Fatal("c fired on first hit")
	}
	if Hit("c") == nil {
		t.Fatal("c did not fire on second hit")
	}
}

func TestBadSpecs(t *testing.T) {
	for _, spec := range []string{
		"", "noequals", "x=explode", "x=error:after=0", "x=error:p=2",
		"x=slow:delay=later", "x=error:bogus=1",
	} {
		Disarm()
		if err := Arm(spec); err == nil {
			t.Errorf("Arm(%q) accepted", spec)
		}
	}
	Disarm()
}
