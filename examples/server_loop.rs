//! The serving loop: `gsi-service` answering a mixed query stream against
//! two registered data graphs with 32 queries in flight.
//!
//! Demonstrates the full subsystem — graph catalog, bounded-queue
//! scheduler with worker threads, and aggregated service statistics — and
//! cross-checks every answer against single-threaded serial execution.
//!
//! ```text
//! cargo run --release --example server_loop
//! ```

use gsi::datasets::{build, statistics, DatasetKind, DatasetSpec};
use gsi::engine::PreparedData;
use gsi::graph::query_gen::random_walk_query;
use gsi::prelude::*;
use gsi::service::QueryTicket;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::time::Duration;

/// How many queries the client keeps in flight at once.
const IN_FLIGHT: usize = 32;
/// Distinct patterns per graph; each is submitted `REPEATS` times.
const PATTERNS_PER_GRAPH: usize = 12;
const REPEATS: usize = 4;

fn main() {
    // ---- catalog: two Table III stand-ins --------------------------------
    let graphs = vec![
        (
            "enron",
            build(&DatasetSpec::scaled(DatasetKind::Enron, 0.02)),
        ),
        (
            "gowalla",
            build(&DatasetSpec::scaled(DatasetKind::Gowalla, 0.008)),
        ),
    ];
    for (name, g) in &graphs {
        println!("graph '{name}': {}", statistics(g));
    }

    // ---- mixed workload: recurring random-walk patterns ------------------
    let mut rng = StdRng::seed_from_u64(42);
    let mut workload: Vec<(&str, Graph)> = Vec::new();
    for (name, g) in &graphs {
        let mut made = 0;
        while made < PATTERNS_PER_GRAPH {
            let size = 3 + made % 4; // mixed sizes: 3–6 vertices
            if let Some(q) = random_walk_query(g, size, &mut rng) {
                workload.push((name, q));
                made += 1;
            }
        }
    }
    // Interleave repeats so the two graphs' patterns mix in the queue.
    let stream: Vec<(&str, Graph)> = (0..REPEATS)
        .flat_map(|_| workload.iter().cloned())
        .collect();
    println!(
        "\nworkload: {} queries ({} patterns x {} repeats) over {} graphs\n",
        stream.len(),
        workload.len(),
        REPEATS,
        graphs.len()
    );

    // ---- serial ground truth ---------------------------------------------
    let engine = GsiEngine::new(GsiConfig::gsi_opt());
    let prepared: Vec<PreparedData> = graphs.iter().map(|(_, g)| engine.prepare(g)).collect();
    let serial_counts: Vec<usize> = stream
        .iter()
        .map(|(name, q)| {
            let i = graphs.iter().position(|(n, _)| n == name).unwrap();
            engine
                .query(&graphs[i].1, &prepared[i], q)
                .expect("plans")
                .matches
                .len()
        })
        .collect();

    // ---- the service -----------------------------------------------------
    let service = GsiService::new(ServiceConfig {
        workers: 4,
        queue_capacity: 2 * IN_FLIGHT,
        default_deadline: Some(Duration::from_secs(30)),
        ..ServiceConfig::default()
    });
    for (name, g) in &graphs {
        service.register(name, g.clone());
    }

    // Sliding window: keep up to IN_FLIGHT tickets outstanding.
    let mut in_flight: VecDeque<(usize, QueryTicket)> = VecDeque::new();
    let mut service_counts = vec![0usize; stream.len()];
    let drain_one = |in_flight: &mut VecDeque<(usize, QueryTicket)>, counts: &mut Vec<usize>| {
        let (idx, ticket) = in_flight.pop_front().expect("something in flight");
        counts[idx] = ticket.wait().match_count();
    };
    for (i, (name, q)) in stream.iter().enumerate() {
        while in_flight.len() >= IN_FLIGHT {
            drain_one(&mut in_flight, &mut service_counts);
        }
        match service.submit(QueryRequest::new(*name, q.clone())) {
            Ok(t) => in_flight.push_back((i, t)),
            Err(SubmitError::QueueFull { .. }) => {
                // Shed load by draining one response, then retry.
                drain_one(&mut in_flight, &mut service_counts);
                let t = service
                    .submit(QueryRequest::new(*name, q.clone()))
                    .expect("room after draining");
                in_flight.push_back((i, t));
            }
            Err(e) => panic!("submit failed: {e}"),
        }
    }
    while !in_flight.is_empty() {
        drain_one(&mut in_flight, &mut service_counts);
    }

    // ---- verification + report -------------------------------------------
    let identical = service_counts == serial_counts;
    let total_matches: usize = service_counts.iter().sum();
    println!("=== verification ===");
    println!(
        "match counts identical to serial execution: {identical} \
         ({total_matches} total matches)"
    );
    assert!(identical, "service must reproduce serial results exactly");

    println!("\n=== service stats ===");
    println!("{}", service.stats());
    service.shutdown();
}
