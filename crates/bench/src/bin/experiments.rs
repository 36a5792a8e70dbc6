//! Command-line driver that regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run -p gtpq-bench --release --bin experiments -- all
//! cargo run -p gtpq-bench --release --bin experiments -- fig8a table2
//! ```

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        let ids = gtpq_bench::experiments::EXPERIMENTS.join("|");
        eprintln!("usage: experiments <{ids}|all> ...");
        std::process::exit(2);
    }
    for id in &args {
        if let Err(message) = gtpq_bench::run_experiment(id) {
            eprintln!("error: {message}");
            std::process::exit(1);
        }
        println!();
    }
}
