//! Sub-array walkthrough: the Fig. 6 example, executed step by step.
//!
//! Loads a BWT bucket and the CRef rows into one simulated 512×256
//! SOT-MRAM sub-array, then walks one `LFM` by hand: `XNOR_Match`
//! against CRef-T, DPU popcount, vertical marker `MEM`, and `IM_ADD` —
//! printing what each primitive sees and costs.
//!
//! Run with: `cargo run --example subarray_walkthrough`

use bioseq::{Base, DnaSeq};
use mram::array::ArrayModel;
use pimsim::{CycleLedger, Dpu, SubArray};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = ArrayModel::default();
    let mut sub = SubArray::new(model);
    let mut ledger = CycleLedger::new();
    let mut dpu = Dpu::new(model);

    let layout = sub.layout().clone();
    println!("sub-array zones (Fig. 6a):");
    println!(
        "  BWT rows      : {:?} ({} buckets x 128 bp)",
        layout.bwt_rows,
        layout.buckets()
    );
    println!("  CRef rows     : {:?}", layout.cref_rows);
    println!(
        "  MT rows       : {:?} (4 x 32-bit words per column)",
        layout.mt_rows
    );
    println!(
        "  reserved rows : {:?} (IM_ADD scratch; modelled, not held)",
        layout.reserved_rows
    );

    // Load a small BWT segment (the Fig. 6b example compares against T).
    let segment: DnaSeq = "TAGCTTACGT".parse()?;
    let codes: Vec<u8> = segment.iter().map(|b| b.code()).collect();
    sub.load_cref_rows(&mut ledger);
    sub.load_bwt_row(0, &codes, &mut ledger);
    println!("\nBWT bucket 0 <- {segment} (2-bit codes {codes:?})");

    // XNOR_Match against CRef-T: a stack-allocated packed mask, one bit
    // per base position.
    let matches = sub.xnor_match(0, Base::T, &mut ledger);
    let shown: Vec<u8> = (0..segment.len()).map(|j| matches.get(j) as u8).collect();
    println!("XNOR_Match vs CRef-T -> match vector {shown:?}");

    // DPU popcount over a prefix (id within the bucket).
    let id_within = 7;
    let count = dpu.count_mask_matches(&matches, id_within, &mut ledger);
    println!("DPU popcount over first {id_within} positions -> count_match = {count}");

    // Vertical marker storage and MEM read.
    sub.store_marker(0, Base::T, 4, &mut ledger);
    let marker = sub.read_marker(0, Base::T, &mut ledger);
    println!("MEM marker[bucket 0][T] = {marker}");

    // IM_ADD: marker + count, in-memory; it reads no stored row.
    let sum = pimsim::im_add32(&model, marker, count, None, &mut ledger);
    println!("IM_ADD: {marker} + {count} = {sum} (the updated bound)");

    // What it all cost.
    println!("\nledger:");
    for resource in pimsim::Resource::ALL {
        println!(
            "  {resource:?} busy cycles: {}",
            ledger.busy_cycles(resource)
        );
    }
    println!("  dynamic energy: {:.1} pJ", ledger.energy_pj(&model));
    Ok(())
}
