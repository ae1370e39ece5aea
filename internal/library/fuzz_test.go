package library

import "testing"

// FuzzParseLibrary feeds arbitrary text to the MLF parser. Whenever Parse
// accepts an input, its Format output must parse again and format to the
// same text: Format is a fixpoint of the round trip.
func FuzzParseLibrary(f *testing.F) {
	// Seeds stay small: the engine minimizes every new input, and an
	// input the size of the built-in library would spend the whole
	// budget there.
	for _, src := range []string{
		`library(mylib) {
    wire_load { c0 0.6; c1 0.35; }
    cell(INV) {
        pin(A) { dir input; cap 1.0; }
        pin(Z) { dir output; function "!A"; }
        arc(A Z) { kind comb; unate negative; intrinsic 0.04; slope 0.009; }
    }
    cell(DFF) {
        sequential;
        pin(CP) { dir input; clock; cap 1.2; }
        pin(D)  { dir input; cap 1.0; }
        pin(Q)  { dir output; }
        arc(CP Q) { kind launch; intrinsic 0.18; slope 0.014; }
        arc(D CP) { kind setup; margin 0.08; }
        arc(D CP) { kind hold;  margin 0.03; }
    }
}`,
		`library(c) {
  wire_load { c0 1; c1 2; }
  cell(B) {
    pin(A) { dir input; cap 1; }
    pin(Z) { dir output; function "A"; }
    arc(A Z) { kind comb; unate positive; intrinsic 0.1; slope 0.01; }
  }
}`,
		`library(l) { cell(L) { latch; pin(G) { dir input; clock; } pin(D) { dir input; } pin(Q) { dir output; }
  arc(G Q) { kind launch; intrinsic 0.1; slope 0; } arc(D G) { kind setup; margin 0.05; } } }`,
		`library(x) { cell(A) { pin(Z) { dir output; function "!(A&B)|C^D"; } } }`,
		`library(x) { bogus }`,
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		l, err := Parse(src)
		if err != nil {
			return
		}
		text := Format(l)
		l2, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(Format(l)): %v\n%s", err, text)
		}
		if again := Format(l2); again != text {
			t.Fatalf("Format is not a fixpoint:\n%s\n---\n%s", text, again)
		}
	})
}
