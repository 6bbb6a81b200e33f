//! Figure 12 reproduction: execution time vs number of systems `M` for
//! fixed system sizes `N ∈ {512, 2048, 16384}`, double precision.
//!
//! Series: MKL (sequential) and MKL (multithreaded) from the analytic
//! i7-975 model, "Ours (GTX480)" from the simulator. The shapes to
//! check against the paper: CPU curves perfectly linear in `M`; ours
//! flat/sub-linear while the GPU is under-filled (`M ≲ 4096`, with
//! slope changes at the Table III k-transitions), then linear with a
//! much smaller slope — crossing the CPU curves and reaching ~8x over
//! multithreaded MKL at large `M`.
//!
//! Run: `cargo run --release -p bench --bin fig12 [-- --fast]`

use bench::series;
use bench::table::{fmt_us, fmt_x, TextTable};
use bench::HarnessArgs;

fn sweep(n: usize, m_max: usize) -> Vec<String> {
    println!("\n== Fig. 12: N = {n} (double precision) ==");
    let mut t = TextTable::new([
        "M",
        "MKL seq [us]",
        "MKL mt [us]",
        "Ours [us]",
        "k",
        "vs seq",
        "vs mt",
    ]);
    let mut csv = Vec::new();
    let mut m = 64usize;
    while m <= m_max {
        let seq = series::mkl_seq_us(m, n, 8);
        let mt = series::mkl_mt_us(m, n, 8);
        let (ours, report) = series::ours_us::<f64>(m, n);
        t.row([
            m.to_string(),
            fmt_us(seq),
            fmt_us(mt),
            fmt_us(ours),
            report.k.to_string(),
            fmt_x(seq / ours),
            fmt_x(mt / ours),
        ]);
        csv.push(format!("{n},{m},{seq:.3},{mt:.3},{ours:.3},{}", report.k));
        m *= 2;
    }
    print!("{}", t.render());
    csv
}

fn main() {
    let args = HarnessArgs::parse();
    let configs: &[(usize, usize)] = if args.fast {
        &[(512, 1024), (2048, 512)]
    } else {
        // The paper's three panels: (a) N=512 M<=16K, (b) N=2048 M<=4K,
        // (c) N=16384 M<=1K.
        &[(512, 16384), (2048, 4096), (16384, 1024)]
    };
    let mut rows = Vec::new();
    for &(n, m_max) in configs {
        rows.extend(sweep(n, m_max));
    }
    args.write_csv("fig12", "n,m,mkl_seq_us,mkl_mt_us,ours_us,k", &rows)
        .expect("write csv");
}
