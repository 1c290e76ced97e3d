package repro

import (
	"testing"

	"repro/internal/model"
)

func TestFacadeProtocols(t *testing.T) {
	if _, err := Lookup("copssnow"); err != nil {
		t.Fatal(err)
	}
	if _, err := Lookup("bogus"); err == nil {
		t.Fatal("Lookup of unknown protocol succeeded")
	}
}

func TestFacadeDeployAndRun(t *testing.T) {
	d, err := Deploy("copssnow", Config{Servers: 2, ObjectsPerServer: 1, Clients: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res := d.RunTxn("c0", model.NewReadOnly(model.TxnID{}, "X0", "X1"), 100_000)
	if !res.OK() || res.Rounds != 1 {
		t.Fatalf("facade ROT = %v", res)
	}
}

func TestFacadeTheorem(t *testing.T) {
	v, err := RunTheorem("naivefast")
	if err != nil {
		t.Fatal(err)
	}
	if v.Sacrifices != "consistency" || v.Witness == nil {
		t.Fatalf("verdict = %+v", v)
	}
	v2, err := RunTheoremPartial("naivefast", 3)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Sacrifices != "consistency" {
		t.Fatalf("partial verdict = %q", v2.Sacrifices)
	}
}

func TestFacadeCharacterize(t *testing.T) {
	row, err := Characterize("wren", []int64{1})
	if err != nil {
		t.Fatal(err)
	}
	if row.Verdict.Sacrifices != "O" {
		t.Fatalf("wren sacrifices %q", row.Verdict.Sacrifices)
	}
}
