// Command osgishell boots an OSGi platform (the Felix-like base
// configuration by default) and drops into the management shell — the
// administrator's console from the paper's evaluation: inspect bundles
// and services, read the per-isolate resource accounts, run the DoS
// detectors, and kill misbehaving bundles.
//
// Usage:
//
//	osgishell [-mode shared|isolated] [-config felix|equinox] [-c "cmd; cmd"]
//
// Without -c, commands are read from stdin (one per line; EOF exits).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"ijvm/internal/core"
	"ijvm/internal/interp"
	"ijvm/internal/osgi"
	"ijvm/internal/syslib"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "osgishell:", err)
		os.Exit(1)
	}
}

func run(argv []string) error {
	fs := flag.NewFlagSet("osgishell", flag.ContinueOnError)
	mode := fs.String("mode", "isolated", "vm mode: shared or isolated")
	config := fs.String("config", "felix", "platform configuration: felix or equinox")
	script := fs.String("c", "", "semicolon-separated commands to run non-interactively")
	if err := fs.Parse(argv); err != nil {
		return err
	}

	vmMode, err := core.ParseMode(*mode)
	if err != nil {
		return err
	}
	var specs []osgi.BundleSpec
	switch *config {
	case "felix":
		specs = osgi.FelixConfig()
	case "equinox":
		specs = osgi.EquinoxConfig()
	default:
		return fmt.Errorf("unknown config %q (want felix or equinox)", *config)
	}

	vm := interp.NewVM(interp.Options{Mode: vmMode})
	if err := syslib.Install(vm); err != nil {
		return err
	}
	fw, err := osgi.NewFramework(vm)
	if err != nil {
		return err
	}
	if _, err := osgi.InstallAndStart(fw, specs); err != nil {
		return err
	}
	shell := osgi.NewShell(fw)
	fmt.Printf("OSGi platform up (%s configuration, %s mode); type 'help'.\n", *config, vmMode)

	execute := func(line string) {
		line = strings.TrimSpace(line)
		if line == "" {
			return
		}
		if err := shell.Execute(os.Stdout, line); err != nil {
			fmt.Println("error:", err)
		}
	}

	if *script != "" {
		for _, line := range strings.Split(*script, ";") {
			fmt.Printf("osgi> %s\n", strings.TrimSpace(line))
			execute(line)
		}
		return nil
	}

	scanner := bufio.NewScanner(os.Stdin)
	fmt.Print("osgi> ")
	for scanner.Scan() {
		execute(scanner.Text())
		if vm.IsShutdown() {
			break
		}
		fmt.Print("osgi> ")
	}
	return scanner.Err()
}
