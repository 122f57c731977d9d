// Command vtxnshell is a small interactive shell over the public vtxn API,
// for demos and debugging. Values are written as bare integers, floats,
// 'single-quoted strings', true/false, or null.
//
// Usage:
//
//	vtxnshell -dir /tmp/demo
//
// Commands:
//
//	tables                         list tables
//	views                          list views
//	create table t id:int name:string pk id
//	create view v on t group name count sum:id [strategy escrow|xlock|deferred]
//	insert t 1 'alice'
//	delete t 1
//	get t 1
//	scan t
//	view v
//	describe v
//	refresh v
//	metrics                        engine observability snapshot (JSON)
//	top [frames] [interval]        live hot-spot dashboard (Enter quits)
//	lag [frames] [interval]        live per-view freshness dashboard (Enter quits)
//	scrub [frames] [interval]      live online-verification dashboard (Enter quits)
//	scrub full                     one unpaced full verification pass now
//	flightrec [json]               flight-record dump (timeline, or JSONL)
//	stats                          engine counter report (DB.Describe)
//	checkpoint | ghosts | check | quit
//
// SIGQUIT (ctrl-\) dumps the flight record to stderr without exiting.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	vtxn "repro"
)

func main() {
	dir := flag.String("dir", "", "database directory (required)")
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "vtxnshell: -dir is required")
		os.Exit(2)
	}
	db, err := vtxn.Open(*dir, vtxn.Options{
		WatchdogInterval: 500 * time.Millisecond,
		FlightSink:       os.Stderr,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "open:", err)
		os.Exit(1)
	}
	defer db.Close()
	// SIGQUIT dumps the flight record without killing the shell — the
	// classic "what is it doing right now" escape hatch.
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	go func() {
		for range quit {
			db.DumpFlightRecord(os.Stderr)
		}
	}()
	sh := &shell{db: db, out: os.Stdout}
	fmt.Println("vtxn shell — type 'help' for commands")
	scanner := bufio.NewScanner(os.Stdin)
	fmt.Print("> ")
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		if line == "quit" || line == "exit" {
			return
		}
		if line != "" {
			if err := sh.exec(line); err != nil {
				fmt.Println("error:", err)
			}
		}
		fmt.Print("> ")
	}
}

type shell struct {
	db  *vtxn.DB
	out io.Writer
}

func (s *shell) exec(line string) error {
	fields := tokenize(line)
	if len(fields) == 0 {
		return nil
	}
	switch fields[0] {
	case "help":
		fmt.Fprintln(s.out, "tables views describe insert delete get scan view refresh checkpoint stats metrics top lag scrub flightrec ghosts check quit")
		return nil
	case "top":
		return s.top(fields[1:])
	case "lag":
		return s.lag(fields[1:])
	case "scrub":
		return s.scrubCmd(fields[1:])
	case "tables":
		for _, t := range s.db.Catalog().Tables() {
			cols := make([]string, len(t.Cols))
			for i, c := range t.Cols {
				cols[i] = fmt.Sprintf("%s %s", c.Name, c.Kind)
			}
			fmt.Fprintf(s.out, "%s(%s)\n", t.Name, strings.Join(cols, ", "))
		}
		return nil
	case "views":
		for _, v := range s.db.Catalog().Views() {
			fmt.Fprintf(s.out, "%s on %s [%s]\n", v.Name, v.Left, v.Strategy)
		}
		return nil
	case "create":
		return s.create(fields[1:])
	case "insert":
		if len(fields) < 3 {
			return fmt.Errorf("usage: insert <table> <values...>")
		}
		row, err := parseRow(fields[2:])
		if err != nil {
			return err
		}
		return s.inTx(func(tx *vtxn.Tx) error { return tx.Insert(fields[1], row) })
	case "delete":
		if len(fields) < 3 {
			return fmt.Errorf("usage: delete <table> <pk...>")
		}
		pk, err := parseRow(fields[2:])
		if err != nil {
			return err
		}
		return s.inTx(func(tx *vtxn.Tx) error { return tx.Delete(fields[1], pk) })
	case "get":
		if len(fields) < 3 {
			return fmt.Errorf("usage: get <table> <pk...>")
		}
		pk, err := parseRow(fields[2:])
		if err != nil {
			return err
		}
		return s.inTx(func(tx *vtxn.Tx) error {
			row, ok, err := tx.Get(fields[1], pk)
			if err != nil {
				return err
			}
			if !ok {
				fmt.Fprintln(s.out, "(not found)")
				return nil
			}
			fmt.Fprintln(s.out, row)
			return nil
		})
	case "scan":
		if len(fields) != 2 {
			return fmt.Errorf("usage: scan <table>")
		}
		return s.inTx(func(tx *vtxn.Tx) error {
			n := 0
			err := tx.ScanTable(fields[1], nil, nil, func(row vtxn.Row) bool {
				fmt.Fprintln(s.out, row)
				n++
				return n < 1000
			})
			fmt.Fprintf(s.out, "(%d rows)\n", n)
			return err
		})
	case "view":
		if len(fields) != 2 {
			return fmt.Errorf("usage: view <name>")
		}
		return s.inTx(func(tx *vtxn.Tx) error {
			rows, err := tx.ScanView(fields[1])
			if err != nil {
				return err
			}
			for _, r := range rows {
				fmt.Fprintf(s.out, "%v -> %v\n", r.Key, r.Result)
			}
			fmt.Fprintf(s.out, "(%d rows)\n", len(rows))
			return nil
		})
	case "describe":
		if len(fields) != 2 {
			return fmt.Errorf("usage: describe <view>")
		}
		info, err := s.db.DescribeView(fields[1])
		if err != nil {
			return err
		}
		fmt.Fprintln(s.out, info)
		return nil
	case "refresh":
		if len(fields) != 2 {
			return fmt.Errorf("usage: refresh <view>")
		}
		n, err := s.db.RefreshView(fields[1])
		if err == nil {
			fmt.Fprintf(s.out, "(%d rows changed)\n", n)
		}
		return err
	case "checkpoint":
		return s.db.Checkpoint()
	case "stats":
		fmt.Fprintln(s.out, s.db.Describe())
		return nil
	case "metrics", ".metrics":
		buf, err := json.MarshalIndent(s.db.Metrics(), "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "%s\n", buf)
		return nil
	case "flightrec", ".flightrec":
		if len(fields) > 1 && fields[1] == "json" {
			return s.db.WriteFlightRecordJSONL(s.out)
		}
		return s.db.DumpFlightRecord(s.out)
	case "ghosts":
		fmt.Fprintf(s.out, "(%d erased)\n", s.db.CleanGhosts())
		return nil
	case "check":
		if err := s.db.CheckConsistency(); err != nil {
			return err
		}
		fmt.Fprintln(s.out, "ok: all views equal recompute-from-base")
		return nil
	default:
		return fmt.Errorf("unknown command %q (try 'help')", fields[0])
	}
}

// create handles `create table ...` and `create view ...`.
func (s *shell) create(args []string) error {
	if len(args) < 2 {
		return fmt.Errorf("usage: create table|view ...")
	}
	switch args[0] {
	case "table":
		// create table t id:int name:string pk id
		name := args[1]
		var cols []vtxn.Column
		var pk []int
		i := 2
		for ; i < len(args) && args[i] != "pk"; i++ {
			parts := strings.SplitN(args[i], ":", 2)
			if len(parts) != 2 {
				return fmt.Errorf("bad column %q (want name:type)", args[i])
			}
			kind, err := parseKind(parts[1])
			if err != nil {
				return err
			}
			cols = append(cols, vtxn.Column{Name: parts[0], Kind: kind})
		}
		if i < len(args) && args[i] == "pk" {
			for _, pkName := range args[i+1:] {
				idx := -1
				for j, c := range cols {
					if c.Name == pkName {
						idx = j
					}
				}
				if idx < 0 {
					return fmt.Errorf("unknown pk column %q", pkName)
				}
				pk = append(pk, idx)
			}
		}
		return s.db.CreateTable(name, cols, pk)
	case "view":
		// create view v on t group name count sum:balance [strategy xlock]
		if len(args) < 4 || args[2] != "on" {
			return fmt.Errorf("usage: create view <name> on <table> group <col> [count] [sum:<col>] ...")
		}
		name, source := args[1], args[3]
		def := vtxn.ViewDef{Name: name, Kind: vtxn.ViewAggregate, Source: source}
		for i := 4; i < len(args); i++ {
			switch {
			case args[i] == "group" && i+1 < len(args):
				def.GroupBy = append(def.GroupBy, args[i+1])
				i++
			case args[i] == "count":
				def.Aggs = append(def.Aggs, vtxn.CountRows())
			case strings.HasPrefix(args[i], "sum:"):
				def.Aggs = append(def.Aggs, vtxn.Sum(strings.TrimPrefix(args[i], "sum:")))
			case strings.HasPrefix(args[i], "min:"):
				def.Aggs = append(def.Aggs, vtxn.Min(strings.TrimPrefix(args[i], "min:")))
			case strings.HasPrefix(args[i], "max:"):
				def.Aggs = append(def.Aggs, vtxn.Max(strings.TrimPrefix(args[i], "max:")))
			case args[i] == "strategy" && i+1 < len(args):
				switch args[i+1] {
				case "escrow":
					def.Strategy = vtxn.StrategyEscrow
				case "xlock":
					def.Strategy = vtxn.StrategyXLock
				case "deferred":
					def.Strategy = vtxn.StrategyDeferred
				default:
					return fmt.Errorf("unknown strategy %q", args[i+1])
				}
				i++
			default:
				return fmt.Errorf("unknown view clause %q", args[i])
			}
		}
		return s.db.CreateIndexedView(def)
	default:
		return fmt.Errorf("usage: create table|view ...")
	}
}

func parseKind(s string) (vtxn.Kind, error) {
	switch s {
	case "int", "bigint":
		return vtxn.KindInt64, nil
	case "float", "double":
		return vtxn.KindFloat64, nil
	case "string", "varchar":
		return vtxn.KindString, nil
	case "bool":
		return vtxn.KindBool, nil
	case "bytes":
		return vtxn.KindBytes, nil
	default:
		return 0, fmt.Errorf("unknown type %q", s)
	}
}

func (s *shell) inTx(fn func(*vtxn.Tx) error) error {
	tx, err := s.db.BeginTx(context.Background(), vtxn.TxOptions{Isolation: vtxn.ReadCommitted})
	if err != nil {
		return err
	}
	if err := fn(tx); err != nil {
		tx.Rollback()
		return err
	}
	return tx.Commit()
}

// tokenize splits on spaces, keeping 'quoted strings' together.
func tokenize(line string) []string {
	var out []string
	var cur strings.Builder
	inQuote := false
	for _, r := range line {
		switch {
		case r == '\'':
			inQuote = !inQuote
			cur.WriteRune(r)
		case r == ' ' && !inQuote:
			if cur.Len() > 0 {
				out = append(out, cur.String())
				cur.Reset()
			}
		default:
			cur.WriteRune(r)
		}
	}
	if cur.Len() > 0 {
		out = append(out, cur.String())
	}
	return out
}

// parseRow parses shell value literals.
func parseRow(tokens []string) (vtxn.Row, error) {
	row := make(vtxn.Row, 0, len(tokens))
	for _, tok := range tokens {
		switch {
		case tok == "null":
			row = append(row, vtxn.Null())
		case tok == "true":
			row = append(row, vtxn.Bool(true))
		case tok == "false":
			row = append(row, vtxn.Bool(false))
		case strings.HasPrefix(tok, "'") && strings.HasSuffix(tok, "'") && len(tok) >= 2:
			row = append(row, vtxn.Str(tok[1:len(tok)-1]))
		case strings.ContainsAny(tok, ".eE") && !strings.HasPrefix(tok, "'"):
			f, err := strconv.ParseFloat(tok, 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q", tok)
			}
			row = append(row, vtxn.Float(f))
		default:
			i, err := strconv.ParseInt(tok, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q", tok)
			}
			row = append(row, vtxn.Int(i))
		}
	}
	return row, nil
}
