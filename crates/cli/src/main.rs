//! `fastbfs` — the command-line front end of the reproduction.
//!
//! ```text
//! fastbfs gen   --family rmat --scale 18 --edge-factor 16 -o graph.fbfs
//! fastbfs info  -i graph.fbfs
//! fastbfs run   -i graph.fbfs --runs 5 --validate
//! fastbfs trace --family rmat --scale 16 --out trace.jsonl
//! fastbfs metrics --family rmat --scale 16 --sources 8 --format json
//! fastbfs serve --family rmat --scale 16 --metrics-addr 127.0.0.1:9464
//! fastbfs loadgen http://127.0.0.1:9464 --rate 200 --duration 10 --out load.json
//! fastbfs monitor http://127.0.0.1:9464 --interval-ms 1000
//! fastbfs bench-compare BENCHMARK.json parent.lines change.lines
//! fastbfs sim   -i graph.fbfs --scheduling load-balanced
//! fastbfs model --vertices 8388608 --degree 8 --depth 6 --alpha 0.6
//! fastbfs convert -i graph.txt -o graph.fbfs
//! ```

mod cmd;
mod http;
mod loadgen;
mod monitor;
mod opts;
mod serve;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = dispatch(&args) {
        eprintln!("fastbfs: error: {e}");
        std::process::exit(1);
    }
}

fn dispatch(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("gen") => cmd::gen(&args[1..]),
        Some("info") => cmd::info(&args[1..]),
        Some("run") => cmd::run(&args[1..]),
        Some("trace") => cmd::trace(&args[1..]),
        Some("metrics") => cmd::metrics(&args[1..]),
        Some("serve") => serve::serve(&args[1..]),
        Some("loadgen") => loadgen::loadgen(&args[1..]),
        Some("monitor") => monitor::monitor(&args[1..]),
        Some("bench-compare") => cmd::bench_compare(&args[1..]),
        Some("sim") => cmd::sim(&args[1..]),
        Some("model") => cmd::model(&args[1..]),
        Some("convert") => cmd::convert(&args[1..]),
        Some("--help") | Some("-h") | None => {
            print!("{}", cmd::USAGE);
            Ok(())
        }
        Some(other) => Err(format!("unknown subcommand {other:?} (try --help)")),
    }
}
