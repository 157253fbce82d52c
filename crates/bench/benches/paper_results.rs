//! `cargo bench -p dstm-bench [-- <name>...]`: regenerate `paper_results/`
//! (see `dstm_bench::ARTIFACTS`). A setting, flag or name it cannot use, or
//! a file it cannot write, ends it with one `error:` line and exit status 2.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = dstm_bench::regenerate(&args) {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
}
