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
}
