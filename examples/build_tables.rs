//! Pre-computation walkthrough: the Fig. 2 pipeline, table by table.
//!
//! Builds every FM-index table for a small reference and prints them:
//! suffix array, BWT, Count, full Occ, the sampled Occ (bucket width d),
//! and the Marker Table, then shows one `LFM` evaluated from the tables.
//!
//! Run with: `cargo run --example build_tables`

use bioseq::{Base, PackedSeq};
use fmindex::{suffix_array, Bwt, CountTable, MarkerTable, OccTable, SampledOcc, Text};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let reference: PackedSeq = "TGCTAGCATG".parse()?;
    let d = 4;
    println!("reference S = {reference}, bucket width d = {d}\n");

    let text = Text::from_reference(&reference);
    let sa = suffix_array(&text);
    println!("suffix array (sorted suffixes of {text}):");
    for (row, &pos) in sa.iter().enumerate() {
        let suffix: String = text.to_string().chars().skip(pos as usize).collect();
        println!("  SA[{row}] = {pos:>2}  {suffix}");
    }

    let bwt = Bwt::from_sa(&text, &sa);
    println!(
        "\nBWT = {bwt} (reversible: inverts back to {})",
        bwt.invert()
    );

    let count = CountTable::from_bwt(&bwt);
    println!(
        "Count(nt): A:{} C:{} G:{} T:{}",
        count.get(Base::A),
        count.get(Base::C),
        count.get(Base::G),
        count.get(Base::T)
    );

    let occ = OccTable::from_bwt(&bwt);
    println!("\nOcc table (occurrences of nt in BWT[0..i)):");
    print!("  i:   ");
    for i in 0..=bwt.len() {
        print!("{i:>3}");
    }
    println!();
    for base in Base::ALL {
        print!("  {base}:   ");
        for i in 0..=bwt.len() {
            print!("{:>3}", occ.occ(base, i));
        }
        println!();
    }

    // The index itself never builds the full table above: it counts the
    // check-points in one pass over the BWT.
    let sampled = SampledOcc::from_bwt(&bwt, d);
    println!(
        "\nsampled Occ: {} buckets (size reduced by d = {d})",
        sampled.buckets()
    );

    let mt = MarkerTable::new(&count, &sampled);
    println!("marker table MT[bucket][nt] = Count(nt) + SampledOcc[bucket][nt]:");
    for bucket in 0..mt.buckets() {
        print!("  bucket {bucket} (checkpoint {:>2}):", bucket * d);
        for base in Base::ALL {
            print!(" {base}:{:>2}", mt.marker(base, bucket));
        }
        println!();
    }

    // One LFM evaluated from the tables (Algorithm 1 line 9).
    let (nt, id) = (Base::G, 7);
    println!(
        "\nLFM(MT, {nt}, {id}) = MT[{}][{nt}] + count({nt}, BWT[{}..{id}]) = {}",
        id / d,
        (id / d) * d,
        mt.lfm(&bwt, nt, id)
    );
    assert_eq!(mt.lfm(&bwt, nt, id), count.get(nt) + occ.occ(nt, id));
    Ok(())
}
