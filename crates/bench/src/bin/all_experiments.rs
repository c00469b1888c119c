//! Run registry experiments through the engine: `all_experiments [id…]`
//! runs the given registry ids in order (e.g. `all_experiments fig08
//! serve_soak`), and with no ids runs every experiment after prefetching
//! all artifacts in parallel. Each experiment gets a progress line, and
//! the whole run is journaled under `results/journal/` (see
//! `abr_bench::engine` and `abr_bench::journal`).

// With the `counted-alloc` feature the full sweep can also measure the
// alloc_gate experiment; without it that experiment skips itself.
#[cfg(feature = "counted-alloc")]
#[global_allocator]
static ALLOC: counted_alloc::CountingAlloc = counted_alloc::CountingAlloc::new();

fn main() -> std::io::Result<()> {
    let ids: Vec<String> = std::env::args().skip(1).collect();
    if ids.is_empty() {
        abr_bench::engine::run_all()
    } else {
        let ids: Vec<&str> = ids.iter().map(String::as_str).collect();
        abr_bench::engine::run_ids(&ids)
    }
}
