//! The `gsi-server` binary: a GSI serving process on a TCP address.
//!
//! Starts an empty catalog — clients register graphs over the wire — and
//! runs until stdin closes (EOF), then drains gracefully. Example:
//!
//! ```text
//! gsi-server --addr 127.0.0.1:7471 --workers 4 --tenant-inflight 8
//! ```

use gsi_server::{GsiServer, ServerConfig};
use gsi_service::{GsiService, ServiceConfig};
use std::io::BufRead;
use std::sync::Arc;

fn usage() -> &'static str {
    "gsi-server [--addr HOST:PORT] [--workers N] [--queue-capacity N]\n           [--tenant-queue N] [--tenant-inflight N] [--quantum N]\n           [--chunk-rows N] [--max-connections N]\n\n--queue-capacity bounds the scheduler's one queue; --tenant-queue and\n--tenant-inflight bound each tenant's lane inside it. A Submit refused by\neither bound is answered Busy. Serves the GSI wire protocol until stdin\nreaches EOF, then drains."
}

fn parse_args() -> Result<(ServiceConfig, ServerConfig), String> {
    let mut service = ServiceConfig::default();
    let mut server = ServerConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--help" || flag == "-h" {
            return Err(usage().to_string());
        }
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n\n{}", usage()))?;
        let num = || -> Result<usize, String> {
            value
                .parse::<usize>()
                .map_err(|_| format!("{flag}: '{value}' is not a number"))
        };
        match flag.as_str() {
            "--addr" => server.addr = value.clone(),
            "--workers" => service.workers = num()?,
            "--queue-capacity" => service.queue_capacity = num()?,
            "--tenant-queue" => service.tenants.queue_quota = num()?,
            "--tenant-inflight" => service.tenants.inflight_quota = num()?,
            "--quantum" => service.tenants.quantum = num()? as u64,
            "--chunk-rows" => server.chunk_rows = num()?,
            "--max-connections" => server.max_connections = num()?,
            other => return Err(format!("unknown flag '{other}'\n\n{}", usage())),
        }
    }
    Ok((service, server))
}

fn main() -> std::process::ExitCode {
    let (service_config, server_config) = match parse_args() {
        Ok(pair) => pair,
        Err(msg) => {
            eprintln!("{msg}");
            return std::process::ExitCode::FAILURE;
        }
    };
    let service = Arc::new(GsiService::new(service_config));
    let server = match GsiServer::start(Arc::clone(&service), server_config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("gsi-server: bind failed: {e}");
            return std::process::ExitCode::FAILURE;
        }
    };
    println!("gsi-server listening on {}", server.local_addr());

    // Serve until stdin closes — the hermetic stand-in for a signal
    // handler (no signal crate in the workspace).
    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        line.clear();
        match stdin.lock().read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }

    let report = server.shutdown();
    println!(
        "gsi-server drained: {} response(s) served, {} connection(s) closed",
        report.served_total, report.connections_drained
    );
    std::process::ExitCode::SUCCESS
}
