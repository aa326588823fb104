// Command dbconvert converts between FASTA and the binary sequence
// database format of §IV (random-access index + known sizes).
//
// The input format follows the extension: a .swdb input is memory-mapped
// (swdual.OpenDatabase), anything else is parsed as FASTA; the output is
// .swdb if its name ends so, FASTA otherwise. The output is written to a
// temporary file and renamed into place, so -in and -out may name the
// same file.
//
// Usage:
//
//	dbconvert -in db.fasta -out db.swdb
//	dbconvert -in db.swdb -out db.fasta
//	dbconvert -in db.swdb -out db.swdb   # rewrite in place
//	dbconvert -in db.swdb -verify        # full index + data CRC check
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"swdual"
	"swdual/internal/seqdb"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dbconvert: ")
	var (
		in     = flag.String("in", "", "input file (.fasta or .swdb)")
		out    = flag.String("out", "", "output file (.fasta or .swdb)")
		verify = flag.Bool("verify", false, "verify a .swdb file's index integrity and data checksum, then exit")
	)
	flag.Parse()
	if *in == "" {
		log.Fatal("-in is required")
	}
	if *verify {
		// Open maps the file and already refuses any header or index
		// entry that doesn't fit the real file size; Verify then rescans
		// every residue byte against the header CRC.
		m, err := seqdb.Open(*in)
		if err != nil {
			log.Fatal(err)
		}
		defer m.Close()
		if err := m.Verify(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: index OK, data CRC OK (%d sequences, %d residues)\n", *in, m.Count(), m.TotalResidues())
		return
	}
	if *out == "" {
		log.Fatal("-out is required")
	}
	db, err := swdual.OpenDatabase(*in)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	if strings.HasSuffix(*out, ".swdb") {
		err = db.SaveBinary(*out)
	} else {
		err = db.SaveFASTA(*out)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("converted %d sequences (%d residues) %s -> %s\n", db.Len(), db.TotalResidues(), *in, *out)
}
