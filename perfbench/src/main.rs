//! `perfbench` — see the library docs and README.md.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(webcache_perfbench::main_entry(&args));
}
