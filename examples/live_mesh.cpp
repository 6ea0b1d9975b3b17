// Live protocol engine demo: five devices exchanging real wire frames.
//
// Unlike the trace-driven simulator (which models protocols as strategy
// objects), this drives actual BsubNode state machines through the byte-
// budgeted Network harness — every interest report, relay exchange, and
// message is an encoded, checksummed frame. This is the shape of the
// paper's future-work "prototype HUNET system".
#include <cstdio>

#include "engine/network.h"

int main() {
  using namespace bsub;
  using engine::ContentMessage;
  using util::from_minutes;
  using util::kHour;

  core::BsubConfig cfg;
  cfg.df_per_minute = 0.2;  // relay routes live ~250 minutes per priming

  engine::Network net(cfg);
  auto& alice = net.add_node(1);    // produces concert updates
  auto& bob = net.add_node(2);      // broker (the socially active one)
  auto& carla = net.add_node(3);    // follows #NewMoon
  auto& daniel = net.add_node(4);   // follows #MichaelJackson
  auto& erin = net.add_node(5);     // broker

  bob.set_broker(true);
  erin.set_broker(true);
  carla.subscribe("NewMoon");
  daniel.subscribe("MichaelJackson");

  auto post = [&](engine::BsubNode& who, std::uint64_t id, const char* key,
                  double minute) {
    ContentMessage m;
    m.id = id;
    m.key = key;
    m.body.assign(120, 0x42);
    m.created = from_minutes(minute);
    m.ttl = 12 * kHour;
    who.publish(std::move(m), from_minutes(minute));
    std::printf("[%6.0f min] node %llu posts #%s (id %llu)\n", minute,
                static_cast<unsigned long long>(who.id()), key,
                static_cast<unsigned long long>(id));
  };

  auto meet = [&](engine::NodeId a, engine::NodeId b, double minute) {
    auto before = net.deliveries().size();
    engine::ContactReport r =
        net.contact(a, b, from_minutes(minute), 2 * from_minutes(1));
    std::printf("[%6.0f min] %llu <-> %llu: %zu frames, %llu bytes\n", minute,
                static_cast<unsigned long long>(a),
                static_cast<unsigned long long>(b), r.frames_delivered,
                static_cast<unsigned long long>(r.bytes_used));
    for (std::size_t i = before; i < net.deliveries().size(); ++i) {
      const auto& d = net.deliveries()[i];
      std::printf("             -> delivered #%s (id %llu) to node %llu\n",
                  d.key.c_str(), static_cast<unsigned long long>(d.message_id),
                  static_cast<unsigned long long>(d.consumer));
    }
  };

  std::printf("--- morning: subscriptions spread through the brokers ---\n");
  meet(3, 2, 10);   // Carla primes Bob with #NewMoon
  meet(4, 5, 20);   // Daniel primes Erin with #MichaelJackson
  meet(2, 5, 30);   // brokers merge relay filters
  meet(4, 5, 40);   // Daniel reinforces Erin: she is his closest broker

  std::printf("\n--- noon: Alice posts, brokers pick up ---\n");
  post(alice, 100, "NewMoon", 60);
  post(alice, 101, "MichaelJackson", 61);
  post(alice, 102, "openwebawards", 62);  // nobody follows this one
  meet(1, 2, 70);   // Bob picks up both subscribed topics (merged relay)

  std::printf("\n--- afternoon: brokers meet, messages chase interests ---\n");
  meet(2, 5, 120);  // preferential exchange Bob -> Erin where Erin is closer

  std::printf("\n--- evening: consumers collect their feeds ---\n");
  meet(2, 3, 200);  // Bob delivers #NewMoon to Carla
  meet(5, 4, 210);  // Erin delivers #MichaelJackson to Daniel

  std::printf("\ntotal deliveries: %zu (the #openwebawards post found no "
              "subscribers)\n",
              net.deliveries().size());
  std::printf("Bob's relay filter now holds %zu set bits; carried buffers: "
              "bob=%zu erin=%zu\n",
              net.node(2).relay_filter().popcount(),
              net.node(2).carried_count(), net.node(5).carried_count());
  return 0;
}
