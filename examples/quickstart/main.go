// Quickstart: build a five-node network from scratch, describe a two-step
// service, map it to a (requester, provider) pair and generate the
// user-perceived service infrastructure model (UPSIM).
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"

	"upsim"
	"upsim/internal/uml"
)

func main() {
	if err := run(); err != nil {
		log.SetFlags(0)
		log.Fatal(err)
	}
}

func run() error {
	// 1. Describe the component types. The availability profile gives every
	// device and connector the MTBF/MTTR attributes later analysis needs.
	m := upsim.NewModel("quickstart")
	profile := upsim.NewProfile("availability")
	component, err := profile.DefineAbstractStereotype("Component", uml.MetaclassNone)
	if err != nil {
		return err
	}
	if err := component.AddAttribute("MTBF", uml.KindReal); err != nil {
		return err
	}
	if err := component.AddAttribute("MTTR", uml.KindReal); err != nil {
		return err
	}
	device, err := profile.DefineSubStereotype("Device", uml.MetaclassClass, component)
	if err != nil {
		return err
	}
	connector, err := profile.DefineSubStereotype("Connector", uml.MetaclassAssociation, component)
	if err != nil {
		return err
	}
	if err := m.AddProfile(profile); err != nil {
		return err
	}

	class := func(name string, mtbf, mttr float64) *upsim.Class {
		c, err := m.AddClass(name)
		if err != nil {
			log.Fatal(err)
		}
		app, err := c.Apply(device)
		if err != nil {
			log.Fatal(err)
		}
		_ = app.Set("MTBF", uml.RealValue(mtbf))
		_ = app.Set("MTTR", uml.RealValue(mttr))
		return c
	}
	laptop := class("Laptop", 5000, 12)
	sw := class("Switch", 150000, 0.5)
	server := class("Server", 60000, 0.2)

	assoc := func(name string, a, b *upsim.Class) *upsim.Association {
		as, err := m.AddAssociation(name, a, b)
		if err != nil {
			log.Fatal(err)
		}
		app, err := as.Apply(connector)
		if err != nil {
			log.Fatal(err)
		}
		_ = app.Set("MTBF", uml.RealValue(1e6))
		_ = app.Set("MTTR", uml.RealValue(0.1))
		return as
	}
	ls := assoc("Laptop-Switch", laptop, sw)
	ss := assoc("Switch-Switch", sw, sw)
	sv := assoc("Switch-Server", sw, server)

	// 2. Deploy the topology: a laptop behind a switch, two redundant core
	// switches, a server.
	d := m.NewObjectDiagram("office")
	for _, spec := range []struct {
		name string
		cls  *upsim.Class
	}{
		{"alice", laptop}, {"access", sw}, {"coreA", sw}, {"coreB", sw}, {"files", server},
	} {
		if _, err := d.AddInstance(spec.name, spec.cls); err != nil {
			return err
		}
	}
	for _, l := range []struct {
		a, b string
		as   *upsim.Association
	}{
		{"alice", "access", ls},
		{"access", "coreA", ss}, {"access", "coreB", ss},
		{"coreA", "files", sv}, {"coreB", "files", sv},
	} {
		if _, err := d.ConnectByName(l.a, l.b, l.as); err != nil {
			return err
		}
	}

	// 3. Describe the service and map it: "open" then "save", both between
	// alice and the file server.
	svc, err := upsim.NewSequentialService(m, "file-share", "open", "save")
	if err != nil {
		return err
	}
	mp := upsim.NewMapping()
	if err := mp.Add(upsim.Pair{AtomicService: "open", Requester: "alice", Provider: "files"}); err != nil {
		return err
	}
	if err := mp.Add(upsim.Pair{AtomicService: "save", Requester: "alice", Provider: "files"}); err != nil {
		return err
	}

	// 4. Pre-flight lint: every cross-artifact defect (dangling mapping
	// references, missing MTBF/MTTR, disconnected pairs, ...) at once,
	// before any pipeline step runs.
	lintRep, err := upsim.Lint(m, "office", svc, mp)
	if err != nil {
		return err
	}
	fmt.Println("pre-flight lint:", lintRep.Summary())
	if err := lintRep.Err(); err != nil {
		return err
	}

	// 5. Generate the UPSIM and analyse alice's perceived availability.
	gen, err := upsim.NewGenerator(m, "office")
	if err != nil {
		return err
	}
	res, err := gen.Generate(svc, mp, "alice-files", upsim.Options{})
	if err != nil {
		return err
	}
	fmt.Println("UPSIM components:", res.NodeNames())
	for _, sp := range res.Services {
		fmt.Printf("paths for %q (%s -> %s):\n", sp.AtomicService, sp.Requester, sp.Provider)
		for _, p := range sp.Paths {
			fmt.Println("  ", p)
		}
	}
	rep, err := upsim.Analyze(res, upsim.ModelExact, 100000, 1)
	if err != nil {
		return err
	}
	fmt.Printf("user-perceived availability: %.6f (≈ %.1f h downtime/year)\n",
		rep.Exact, rep.DowntimePerYearHours)

	// 6. The UPSIM is a regular object diagram: record it in the model,
	// then export the whole model.
	if err := gen.Record(res); err != nil {
		return err
	}
	fmt.Println("\nModel XML written to quickstart-model.xml")
	f, err := os.Create("quickstart-model.xml")
	if err != nil {
		return err
	}
	defer f.Close()
	return upsim.WriteModel(f, m)
}
