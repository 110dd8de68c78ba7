//! Table 1: the serverless functions used in the evaluation and their
//! per-instance resource limits.

use sim_core::TextTable;
use workloads::FunctionKind;

/// Renders Table 1 from the workload profiles.
pub fn render() -> String {
    let mut t = TextTable::new(&["Function", "Description", "vCPU shares", "Memory (MiB)"]);
    let descr = |k: FunctionKind| match k {
        FunctionKind::Cnn => "JPEG classification",
        FunctionKind::Bert => "ML inference",
        FunctionKind::Bfs => "Breadth-first search",
        FunctionKind::Html => "Web service",
    };
    // The paper lists Cnn, Bert, BFS, HTML in this order.
    for kind in [
        FunctionKind::Cnn,
        FunctionKind::Bert,
        FunctionKind::Bfs,
        FunctionKind::Html,
    ] {
        let p = kind.profile();
        t.row(vec![
            kind.name().to_string(),
            descr(kind).to_string(),
            format!("{}", p.vcpu_shares),
            format!("{}", p.memory_limit.as_mib()),
        ]);
    }
    let mut out = String::from("Table 1: serverless functions and per-instance resource limits\n");
    out.push_str(&t.render());
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn table_matches_paper_values() {
        let s = super::render();
        assert!(s.contains("Cnn"));
        assert!(s.contains("768"));
        assert!(s.contains("1536"));
        assert!(s.contains("0.25"));
        assert!(s.contains("JPEG classification"));
    }
}
